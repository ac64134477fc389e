import math
import sys
import threading
import time

import numpy as np
import pytest

from coprime_lab import sieve
from coprime_lab.errors import ResourceLimitError
from coprime_lab.exact import coprime_pair_count, ktuple_coprime_count
from coprime_lab.sieve import (
    MAX_SIEVE_LIMIT,
    SieveTables,
    build_sieve,
    primes_up_to,
)

N_PROP = 10**4


@pytest.fixture(scope="module")
def tables() -> SieveTables:
    return build_sieve(N_PROP)


def simple_prime_sieve(n):
    """Independent boolean Eratosthenes oracle."""
    is_p = [True] * (n + 1)
    is_p[0] = is_p[1] = False
    p = 2
    while p * p <= n:
        if is_p[p]:
            for m in range(p * p, n + 1, p):
                is_p[m] = False
        p += 1
    return is_p


def factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def smooth_part_tables(n):
    """(mu, phi) for 0..n by dividing each m by its prime powers p^e, p <= sqrt(n).

    An independent construction of the same tables: the product of those
    prime powers is built up in its own array, and m divided by it leaves 1
    or the one prime factor of m above sqrt(n), applied in a final pass.
    """
    mu = np.ones(n + 1, dtype=np.int8)
    phi = np.ones(n + 1, dtype=np.int32)
    smooth = np.ones(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if phi[p] == 1:
            phi[p::p] *= p - 1
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            pk = p
            while pk <= n:
                smooth[pk::pk] *= p
                if pk > p:
                    phi[pk::pk] *= p
                pk *= p
    rem = np.arange(n + 1, dtype=np.int32) // smooth
    big = rem > 1
    phi[big] *= rem[big] - 1
    mu[big] = -mu[big]
    mu[0] = phi[0] = 0
    return mu, phi


def test_build_matches_smooth_part_tables():
    # every n up to 300, then prime n, n = p^2, powers of two and 10^6
    for n in list(range(1, 301)) + [65536, 99991, 994009, 999983, 10**6]:
        t = build_sieve(n)
        mu, phi = smooth_part_tables(n)
        assert t.mu.dtype == mu.dtype and t.phi.dtype == phi.dtype
        assert np.array_equal(t.mu, mu) and np.array_equal(t.phi, phi), n


def test_degenerate_limit():
    t = build_sieve(1)
    assert t.limit == 1
    assert t.mu[1] == 1 and t.phi[1] == 1
    assert len(primes_up_to(t.limit)) == 0


def test_small_values():
    t = build_sieve(30)
    assert t.phi[10] == 4 and t.mu[10] == 1
    assert t.mu[30] == -1  # 2 * 3 * 5
    assert t.phi[1] == 1 and t.mu[1] == 1


def test_prime_entries(tables):
    is_p = simple_prime_sieve(N_PROP)
    for p in range(2, N_PROP + 1):
        if is_p[p]:
            assert tables.phi[p] == p - 1
            assert tables.mu[p] == -1
    primes = primes_up_to(N_PROP)
    assert primes.tolist() == [p for p in range(N_PROP + 1) if is_p[p]]
    assert [int(p) for p in primes[:10]] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert np.all(np.diff(primes) > 0)


def test_mu_phi_against_factorization(tables):
    for n in range(2, 2001):
        fac = factorize(n)
        mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        phi = 1
        for p, e in fac:
            phi *= (p - 1) * p ** (e - 1)
        assert tables.mu[n] == mu, n
        assert tables.phi[n] == phi, n


def test_divisor_sum_identities(tables):
    # sum_{d|n} phi(d) = n and sum_{d|n} mu(d) = 0 (n >= 2), accumulated
    # over multiples so the check is O(N log N)
    phi_acc = np.zeros(N_PROP + 1, dtype=np.int64)
    mu_acc = np.zeros(N_PROP + 1, dtype=np.int64)
    for d in range(1, N_PROP + 1):
        phi_acc[d::d] += int(tables.phi[d])
        mu_acc[d::d] += int(tables.mu[d])
    assert np.array_equal(phi_acc[1:], np.arange(1, N_PROP + 1))
    assert mu_acc[1] == 1
    assert np.all(mu_acc[2:] == 0)


def test_mu_zero_iff_square_divisor(tables):
    for n in range(1, 3001):
        has_sq = any(e > 1 for _, e in factorize(n))
        assert (tables.mu[n] == 0) == has_sq, n


def test_prefix_consistency():
    small, big = build_sieve(500), build_sieve(1000)
    assert np.array_equal(big.mu[:501], small.mu)
    assert np.array_equal(big.phi[:501], small.phi)
    big_primes = primes_up_to(1000)
    n_small = int(np.searchsorted(big_primes, 500, side="right"))
    assert np.array_equal(big_primes[:n_small], primes_up_to(500))


def prime_count(primes, x):
    """pi(x) read off an ascending prime array that reaches past x."""
    return int(np.searchsorted(primes, x, side="right"))


def test_prime_count_values():
    primes = primes_up_to(10**6)
    assert prime_count(primes, 0) == 0
    assert prime_count(primes, 1) == 0
    assert prime_count(primes, 2) == 1
    assert prime_count(primes, 100) == 25
    oracle = sum(simple_prime_sieve(10**6))
    assert len(primes) == oracle == 78498


def test_prime_count_monotone_and_density_decreasing():
    primes = primes_up_to(10**6)
    xs = [10**3, 10**4, 10**5, 10**6]
    counts = [prime_count(primes, x) for x in xs]
    assert counts == sorted(counts)
    dens = [c / x for c, x in zip(counts, xs)]
    assert all(a > b for a, b in zip(dens, dens[1:]))


def test_errors():
    with pytest.raises(ResourceLimitError):
        build_sieve(0)
    with pytest.raises(ResourceLimitError):
        build_sieve(MAX_SIEVE_LIMIT + 1)
    with pytest.raises(ResourceLimitError):
        primes_up_to(-1)


def test_tables_immutable(tables):
    for arr in (tables.mu, tables.phi):
        with pytest.raises(ValueError):
            arr[1] = 0


def test_primes_up_to():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ResourceLimitError):
        primes_up_to(MAX_SIEVE_LIMIT + 1)


def run_in_two_threads(work):
    """[work(0), work(1)], each in its own thread, released together by a
    barrier, with a short switch interval so the threads interleave often."""
    barrier = threading.Barrier(2)
    results = [None, None]

    def worker(i):
        barrier.wait(timeout=10)
        results[i] = work(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_shared_tables_built_once_by_two_threads(monkeypatch):
    calls = []

    def counting_build(limit):
        calls.append(limit)
        time.sleep(0.05)  # keeps the build open while the other thread asks
        return build_sieve(limit)

    monkeypatch.setattr(sieve, "build_sieve", counting_build)
    monkeypatch.setattr(sieve, "_shared", None)
    results = run_in_two_threads(lambda i: sieve.shared_tables(5000))
    assert len(calls) == 1
    assert results[0] is results[1] and results[0].limit >= 5000


def test_prefix_cache_grown_by_two_threads(monkeypatch):
    # bases 10^4, 46,415, 96,548 and 215,443: each query grows the table
    queries = [(coprime_pair_count, (10**6,)), (ktuple_coprime_count, (10**7, 3)),
               (ktuple_coprime_count, (3 * 10**7, 3)), (coprime_pair_count, (10**8,))]
    serial = [f(*args).numerator for f, args in queries]
    builds = []

    def slow_small_build(limit):
        # a small build is held open while the other thread grows the table
        # to 215,443, so an unguarded one would land last and shrink it
        builds.append(limit)
        if limit < 10**5:
            time.sleep(0.05)
        return build_sieve(limit)

    monkeypatch.setattr(sieve, "_shared", None)
    monkeypatch.setattr(sieve, "build_sieve", slow_small_build)

    def work(i):
        # thread 0 grows the table query by query; thread 1 starts at the
        # top once thread 0's first, small build is under way
        if i:
            time.sleep(0.01)
        return [f(*args).numerator for f, args in (queries if i == 0 else queries[::-1])]

    results = run_in_two_threads(work)
    assert results == [serial, serial[::-1]]
    # under the lock a build starts only past the table it finds and leaves
    # one at least as large as it asked for, so the builds rise strictly; a
    # shrunk table would be built again to a limit it once had
    assert builds == sorted(set(builds)) and sieve._shared.limit == 215_443


def test_prefix_sums_summed_once_by_two_threads(monkeypatch):
    tables, sums = build_sieve(5000), []
    real_cumsum = np.cumsum

    def slow_cumsum(a, *args, **kwargs):
        sums.append(a.dtype)
        time.sleep(0.05)  # keeps the sum open while the other thread reads
        return real_cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", slow_cumsum)
    results = run_in_two_threads(lambda i: (tables.mu_sum, tables.phi_sum))
    assert sums == [np.int32, np.int64]
    assert results[0][0] is results[1][0] and results[0][1] is results[1][1]
    monkeypatch.undo()
    assert np.array_equal(tables.mu_sum, np.cumsum(tables.mu, dtype=np.int64))
    assert np.array_equal(tables.phi_sum, np.cumsum(tables.phi, dtype=np.int64))
