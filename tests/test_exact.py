import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprime_lab import constants, exact, limits, sieve
from coprime_lab.errors import ResourceLimitError
from coprime_lab.exact import (
    DensityResult,
    coprime_ordered_count_mobius,
    coprime_pair_count,
    f_gcd_density,
    floor_f,
    gcd_equal_count,
    kfree_count,
    ktuple_coprime_count,
    odd_coprime_pair_count,
    pairwise_coprime_triple_count,
    prime_density,
    squarefree_count,
    totient_sum,
    visible_points_in_disk,
)
from coprime_lab.limits import (
    FGCD_MAX,
    SIEVE_LIMIT_ENV,
    TRIPLE_BRUTE_BOUND,
    FunctionSpec,
    _base_size,
    _unproven_lanes,
    iroot,
)
from coprime_lab.sieve import build_sieve

SIX_OVER_PI2 = 6 / math.pi**2
SRC = str(Path(exact.__file__).resolve().parents[1])


def per_d_sum(mu, n, g, step=1):
    """sum of mu[d] * g(n // d) over d = 1, 1 + step, ... <= n, one d at a time."""
    return sum(mu[d] * g(n // d) for d in range(1, n + 1, step) if mu[d])


def test_density_result_is_an_immutable_seven_field_record():
    res = DensityResult("pair", 10, 31, 45, 31 / 45, 0.6, 0.08)
    assert res == DensityResult(kind="pair", n=10, numerator=31, denominator=45, value=31 / 45,
                                reference=0.6, abs_gap=0.08)
    assert res != DensityResult("pair", 10, 31, 45, 31 / 45, 0.6, 0.09)
    assert (res.kind, res.n, res.numerator, res.denominator, res.value, res.reference, res.abs_gap) \
        == ("pair", 10, 31, 45, 31 / 45, 0.6, 0.08)
    bare = DensityResult("visible", 1, 8, 9, 8 / 9)
    assert (bare.reference, bare.abs_gap) == (None, None)
    assert repr(bare) == ("DensityResult(kind='visible', n=1, numerator=8, denominator=9, "
                          "value=0.8888888888888888, reference=None, abs_gap=None)")
    with pytest.raises(AttributeError):
        res.value = 0.5
    with pytest.raises(AttributeError):
        res.label = "pair"
    assert coprime_pair_count(10) == DensityResult("pair", 10, 31, 45, 31 / 45, SIX_OVER_PI2,
                                                   abs(31 / 45 - SIX_OVER_PI2))


# ---------------------------------------------------------------------------
# totient summatory function
# ---------------------------------------------------------------------------


def test_totient_sum_trivial():
    assert totient_sum(0) == 0
    assert totient_sum(1) == 1
    assert totient_sum(10) == 32  # 1+1+2+2+4+2+6+4+6+4


def test_totient_sum_brute():
    # phi(k) counted directly as #{i <= k : gcd(i, k) = 1}
    acc = 0
    for k in range(1, 301):
        acc += sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)
        assert totient_sum(k) == acc, k


def test_totient_sum_routes_agree():
    # a full table against the recurrence from a base of about n^(2/3)
    for n in (10**4, 123_456, 10**6):
        t = sieve.shared_tables(n)
        assert exact._totient_at(n, n, t) == exact._totient_at(n, _base_size(n), t), n


def test_totient_sum_errors():
    with pytest.raises(ValueError):
        totient_sum(-1)


# Phi(10^k) (OEIS A064018) and M(10^k) (OEIS A084237), k = 1..9
PHI_POW10 = [32, 3044, 304192, 30397486, 3039650754, 303963552392, 30396356427242,
             3039635516365908, 303963551173008414]
MERTENS_POW10 = [-1, 1, 2, -23, -48, 212, 1037, 1928, -222]

# Phi past 2^63, computed once by the pure-Python recurrence this engine replaced
PHI_PAST_INT64 = {6 * 10**9: 10942687833564150102, 10**10: 30396355092886216366}

TABLES_3000 = build_sieve(3000)
PHI_3000 = np.cumsum(TABLES_3000.phi, dtype=np.int64)
M_3000 = np.cumsum(TABLES_3000.mu, dtype=np.int64)
M_ODD_3000 = np.cumsum(np.where(np.arange(3001) % 2 == 1, TABLES_3000.mu, 0), dtype=np.int64)


def mertens(n):
    mert = exact._mertens_at_quotients(n, *exact._base_table(n))
    return int(mert(np.array([1]))[0])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 3000))
def test_quotient_recurrence_matches_brute_force(data, n):
    base = data.draw(st.integers(math.isqrt(n), n - 1), label="base size")
    big = exact._quotient_values(n, base, PHI_3000.view(np.uint64)[: base + 1],
                                 lambda m: m * (m + 1) // 2)
    ks = np.arange(1, n // (base + 1) + 1)
    assert big[1:].tolist() == PHI_3000[n // ks].tolist()
    assert exact._totient_at(n, base, TABLES_3000) == PHI_3000[n]
    mert = exact._mertens_at_quotients(n, base, TABLES_3000)
    i = np.arange(1, n + 2)  # every quotient point of n, and 0 at i = n + 1
    assert mert(i).tolist() == M_3000[n // i].tolist()
    assert exact._odd_mertens(mert, n, i).tolist() == M_ODD_3000[n // i].tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), j=st.integers(2, 4))
def test_root_quotient_recurrence_matches_brute_force(data, j):
    # M at x_k = iroot(n // k, j) for k <= K = n // (L + 1)^j, then M(L), and
    # the j-free count from the same base L; n <= 1e7 keeps K below 3000
    n = data.draw(st.integers(1, min(3000**j, 10**7)), label="n")
    x1 = iroot(n, j)
    base = data.draw(st.integers(math.isqrt(x1), x1), label="base size")
    K = n // (base + 1) ** j
    mert = exact._mertens_at_quotients(n, base, TABLES_3000, j)
    expect = [M_3000[iroot(n // k, j)] for k in range(1, K + 1)] + [M_3000[base]]
    assert mert(np.arange(1, K + 2)).tolist() == expect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_base_table", lambda n, j: (base, TABLES_3000))
        assert exact._mobius_sum(n, 1, j=j) == kfree_per_d(n, j)


def test_totient_and_mertens_oeis_powers_of_ten():
    for k in range(1, 10):
        assert totient_sum(10**k) == PHI_POW10[k - 1], k
        assert mertens(10**k) == MERTENS_POW10[k - 1], k


def test_totient_sum_past_int64():
    for n, phi in PHI_PAST_INT64.items():
        assert phi > 2**63
        assert totient_sum(n) == phi, n
        assert coprime_ordered_count_mobius(n) == 2 * phi - 1, n


def test_over_cap_base_table_fails_before_work(monkeypatch):
    def no_build(limit):
        raise AssertionError(f"built a table up to {limit}")

    monkeypatch.setenv("COPRIME_LAB_SIEVE_LIMIT", "10000")
    monkeypatch.setattr(sieve, "build_sieve", no_build)
    for call in (lambda: totient_sum(10**7), lambda: odd_coprime_pair_count(10**7),
                 lambda: coprime_pair_count(10**7), lambda: ktuple_coprime_count(10**7, 3)):
        with pytest.raises(ResourceLimitError):
            call()


def test_pair_crosscheck_runs_past_the_table_cap(monkeypatch):
    # n = 2e7 is above the default 1e7 cap, where the check used to be skipped
    monkeypatch.setattr(exact, "coprime_ordered_count_mobius", lambda n: 0)
    with pytest.raises(AssertionError, match="cross-check failed"):
        coprime_pair_count(2 * 10**7)


def test_answers_do_not_depend_on_cached_prefixes(monkeypatch):
    ns = [10**k for k in range(1, 10)] + list(PHI_PAST_INT64)

    def answers(reset):
        out = []
        for n in ns:
            if reset:
                monkeypatch.setattr(sieve, "_shared", None)
            out.append((totient_sum(n), mertens(n) if n <= 10**9 else None))
        return out

    cold = answers(reset=True)
    monkeypatch.setattr(sieve, "_shared", None)
    totient_sum(10**9)
    assert len(sieve._shared.phi_sum) - 1 == 10**6
    warm = answers(reset=False)
    assert cold == warm
    assert [phi for phi, _ in cold] == PHI_POW10 + list(PHI_PAST_INT64.values())
    assert [m for _, m in cold[:9]] == MERTENS_POW10


def mobius_sum_per_term(n, g, odd=False):
    """sum of a * g(q) over the terms of _mobius_sum, one Python int at a
    time: the reference for its uint64 and Python-int dots."""
    s = math.isqrt(n)
    mert = exact._mertens_at_quotients(n, *exact._base_table(n))
    w = sieve.shared_tables(s).mu[1 : s + 1].astype(np.int64)
    i = np.arange(1, n // (s + 1) + 2, dtype=np.int64)
    if odd:
        w[1::2] = 0
        W = exact._odd_mertens(mert, n, i)
    else:
        W = mert(i)
    weights = np.concatenate([w, W[:-1] - W[1:]]).tolist()
    args = np.concatenate([n // np.arange(1, s + 1, dtype=np.int64), i[:-1]]).tolist()
    return sum(a * g(q) for a, q in zip(weights, args) if a)


@pytest.mark.parametrize(
    "n, e, odd, below",
    [
        (1_249_656, 3, False, True),
        (1_249_657, 3, False, True),
        (2_642_245, 3, False, True),  # the last n with n^3 < 2^64
        (2_642_246, 3, False, False),
        (84, 10, False, True),  # the last n with n^10 < 2^64
        (85, 10, False, False),
        (100, 10, False, False),
        (2**32 - 1, 2, False, True),  # the last n with n^2 < 2^64
        (2**32, 2, False, False),
        (2**32 - 1, 2, True, True),
        (2**32, 2, True, False),
        (6 * 10**9, 2, False, False),
        (10**7, 2, True, True),
    ],
)
def test_mobius_sum_matches_per_term_sum(n, e, odd, below):
    # the sum is a count in [0, n^e]: one wrapping uint64 dot while
    # n^e < 2^64; from there on a Python-int dot for e >= 3, while pairs and
    # odd pairs keep the uint64 dot and lift it through their main term
    assert (n**e < 2**64) == below
    expect = mobius_sum_per_term(n, lambda q: ((q + 1) // 2 if odd else q) ** e, odd)
    assert exact._mobius_sum(n, e, odd) == expect
    if odd:
        assert odd_coprime_pair_count(n).numerator == (expect - 1) // 2
    elif e == 2:
        assert coprime_ordered_count_mobius(n) == expect
    else:
        assert ktuple_coprime_count(n, e).numerator == expect


# ---------------------------------------------------------------------------
# unordered coprime pairs
# ---------------------------------------------------------------------------


def brute_pair_counts(n_max):
    """counts[n] = #{i < k <= n coprime}, built incrementally."""
    counts = [0, 0]
    acc = 0
    for k in range(2, n_max + 1):
        acc += sum(1 for i in range(1, k) if gcd(i, k) == 1)
        counts.append(acc)
    return counts


def test_pair_trivial_and_example():
    r = coprime_pair_count(2)
    assert (r.numerator, r.denominator, r.value) == (1, 1, 1.0)
    r = coprime_pair_count(10)
    assert (r.numerator, r.denominator) == (31, 45)
    assert r.value == 31 / 45
    assert r.reference == pytest.approx(SIX_OVER_PI2, abs=1e-12)


def test_pair_brute_force_all_n_up_to_500():
    counts = brute_pair_counts(500)
    for n in range(2, 501):
        r = coprime_pair_count(n)
        assert r.numerator == counts[n], n
        assert r.denominator == n * (n - 1) // 2


def test_pair_large_value():
    r = coprime_pair_count(10**5)
    assert r.numerator == totient_sum(10**5) - 1
    assert abs(r.value - 0.6079271019) < 5e-4


def test_pair_convergence_band():
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        r = coprime_pair_count(n)
        assert abs(r.value - SIX_OVER_PI2) <= 10 * math.log(n) / n, n


def test_mobius_totient_bridge_up_to_3000():
    for n in range(1, 3001):
        assert coprime_ordered_count_mobius(n) == 2 * totient_sum(n) - 1, n


def test_pair_errors():
    with pytest.raises(ValueError):
        coprime_pair_count(1)


# ---------------------------------------------------------------------------
# gcd(i, k) = t stratification
# ---------------------------------------------------------------------------


def test_gcd_equal_examples():
    assert gcd_equal_count(10, 2).numerator == 9
    assert gcd_equal_count(10, 11).numerator == 0
    assert gcd_equal_count(10, 2).denominator == 45


def test_gcd_equal_brute():
    n = 40
    brute = {}
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            g = gcd(i, k)
            brute[g] = brute.get(g, 0) + 1
    for t in range(1, n + 1):
        assert gcd_equal_count(n, t).numerator == brute.get(t, 0), t


def test_gcd_equal_stratification_identity():
    n = 200
    total = sum(gcd_equal_count(n, t).numerator for t in range(1, n + 1))
    assert total == n * (n - 1) // 2


def test_gcd_equal_matches_scaled_pair_counts():
    for n in (37, 100, 250):
        for t in range(1, n + 1):
            m = n // t
            expect = coprime_pair_count(m).numerator if m >= 2 else 0
            assert gcd_equal_count(n, t).numerator == expect, (n, t)


def test_gcd_equal_reference_scaling():
    assert gcd_equal_count(100, 2).reference == pytest.approx(SIX_OVER_PI2 / 4)


# ---------------------------------------------------------------------------
# k-tuples with gcd 1
# ---------------------------------------------------------------------------


def test_ktuple_trivial_and_example():
    assert ktuple_coprime_count(1, 5).numerator == 1
    r = ktuple_coprime_count(10, 3)
    assert (r.numerator, r.denominator) == (841, 1000)


def test_ktuple_brute_small():
    for n, k in ((10, 3), (12, 2), (6, 4)):
        count = 0
        for tup in np.ndindex(*([n] * k)):
            g = 0
            for v in tup:
                g = gcd(g, v + 1)
            count += g == 1
        assert ktuple_coprime_count(n, k).numerator == count, (n, k)


def test_ktuple_brute_n200():
    # full enumeration of [1,200]^3 via the distinct pair-gcd values
    n = 200
    r = np.arange(1, n + 1, dtype=np.int64)
    g2 = np.gcd.outer(r, r)
    vals, cnts = np.unique(g2, return_counts=True)
    total = 0
    for g, c in zip(vals, cnts):
        total += int(c) * int(np.count_nonzero(np.gcd(g, r) == 1))
    assert ktuple_coprime_count(n, 3).numerator == total


def test_ktuple_k3_reference_gap():
    r = ktuple_coprime_count(10**4, 3)
    assert abs(r.value - 0.8319073726) < 1e-3
    # embedded reference is served at the default 1e-9 tolerance
    assert r.reference == pytest.approx(constants.inv_zeta(3, 1e-12).value, abs=2e-9)


def test_ktuple_big_exponent_uses_exact_ints():
    r = ktuple_coprime_count(50, 10)
    assert r.denominator == 50**10
    assert 0 < r.numerator <= r.denominator
    # 63 and 64 straddle 10 * n.bit_length() = 62, a cheap int64 guard for
    # n^10; 78^10 < 2^63 < 79^10 is where n^10 itself leaves int64
    mu = build_sieve(79).mu.tolist()
    for n in (63, 64, 78, 79):
        expect = per_d_sum(mu, n, lambda q: q**10)
        assert ktuple_coprime_count(n, 10).numerator == expect, n


def test_ktuple_k3_across_2_pow_21():
    # n^3 crosses 2^63 between n = 2^21 - 1 and 2^21
    mu = build_sieve(2**21).mu.tolist()
    pins = {2**21 - 1: 7672982436446989105, 2**21: 7672992332048493361}
    for n, pin in pins.items():
        assert per_d_sum(mu, n, lambda q: q**3) == pin, n
        assert ktuple_coprime_count(n, 3).numerator == pin, n


def test_ktuple_k2_matches_totient_route():
    for n in (2, 10, 999, 2**16, 10**5):
        assert ktuple_coprime_count(n, 2).numerator == 2 * totient_sum(n) - 1, n


MU_3000 = build_sieve(3000).mu.tolist()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3000), k=st.integers(2, 10))
def test_mobius_block_sums_match_per_d_sums(n, k):
    assert ktuple_coprime_count(n, k).numerator == per_d_sum(MU_3000, n, lambda q: q**k)
    assert coprime_ordered_count_mobius(n) == per_d_sum(MU_3000, n, lambda q: q * q)
    if n >= 3:
        odd = per_d_sum(MU_3000, n, lambda q: ((q + 1) // 2) ** 2, step=2)
        assert odd_coprime_pair_count(n).numerator == (odd - 1) // 2


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 3000))
def test_answers_do_not_depend_on_the_route(data, n):
    warm_up = data.draw(st.lists(st.integers(1, 3000), max_size=3), label="warm-up")
    t, k = data.draw(st.integers(1, 6), label="t"), data.draw(st.integers(2, 10), label="k")
    with pytest.MonkeyPatch.context() as mp:
        # every n runs the recurrence from a base of about n^(2/3) or the
        # longest prefix the warm-up left, as large n do
        mp.setattr(exact, "table_need", lambda n, j: limits.table_need(n, j, small=1))
        mp.setattr(sieve, "_shared", None)
        for m in warm_up:
            totient_sum(m)
        assert coprime_pair_count(n).numerator == PHI_3000[n] - 1
        assert gcd_equal_count(n, t).numerator == max(PHI_3000[n // t] - 1, 0)
        assert ktuple_coprime_count(n, k).numerator == per_d_sum(MU_3000, n, lambda q: q**k)
        assert mertens(n) == M_3000[n]
        if n >= 3:
            odd = per_d_sum(MU_3000, n, lambda q: ((q + 1) // 2) ** 2, step=2)
            assert odd_coprime_pair_count(n).numerator == (odd - 1) // 2


def test_ktuple_errors():
    with pytest.raises(ValueError):
        ktuple_coprime_count(10, 1)
    with pytest.raises(ValueError):
        ktuple_coprime_count(10, 11)
    with pytest.raises(ValueError):
        ktuple_coprime_count(0, 3)


# ---------------------------------------------------------------------------
# pairwise coprime triples
# ---------------------------------------------------------------------------


def brute_pairwise_triples(n):
    count = 0
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if gcd(a, b) != 1:
                continue
            for c in range(1, n + 1):
                if gcd(a, c) == 1 and gcd(b, c) == 1:
                    count += 1
    return count


def test_triple_trivial_and_n2():
    assert pairwise_coprime_triple_count(1).numerator == 1
    r = pairwise_coprime_triple_count(2)
    assert (r.numerator, r.denominator) == (4, 8)
    assert r.value == 0.5


def test_triple_brute():
    for n in (3, 10, 37, 50):
        assert pairwise_coprime_triple_count(n).numerator == brute_pairwise_triples(n), n


def test_triple_near_constant():
    r = pairwise_coprime_triple_count(1000)
    assert abs(r.value - 0.286747) < 0.01


def test_triple_resource_limit():
    with pytest.raises(ResourceLimitError):
        pairwise_coprime_triple_count(TRIPLE_BRUTE_BOUND + 1)


# ---------------------------------------------------------------------------
# odd pairs
# ---------------------------------------------------------------------------


def brute_odd_pair_counts(n_max):
    counts = [0] * (n_max + 1)
    acc = 0
    for k in range(1, n_max + 1):
        if k % 2 == 1:
            acc += sum(1 for i in range(1, k, 2) if gcd(i, k) == 1)
        counts[k] = acc
    return counts


def test_odd_pair_examples():
    r = odd_coprime_pair_count(3)
    assert (r.numerator, r.denominator, r.value) == (1, 1, 1.0)
    r = odd_coprime_pair_count(10)
    assert (r.numerator, r.denominator, r.value) == (9, 10, 0.9)


def test_odd_pair_brute_all_n_up_to_500():
    counts = brute_odd_pair_counts(500)
    for n in range(3, 501):
        r = odd_coprime_pair_count(n)
        m = (n + 1) // 2
        assert r.numerator == counts[n], n
        assert r.denominator == m * (m - 1) // 2, n


def test_odd_pair_large_gap():
    r = odd_coprime_pair_count(10**5)
    assert abs(r.value - 0.8105694691) < 1e-3
    assert r.reference == pytest.approx(8 / math.pi**2, abs=1e-12)


# ---------------------------------------------------------------------------
# squarefree / j-free
# ---------------------------------------------------------------------------


def is_kfree(n, j):
    d = 2
    while d**j <= n:
        if n % d**j == 0:
            return False
        d += 1
    return True


def test_squarefree_examples():
    assert squarefree_count(10).numerator == 7  # {1,2,3,5,6,7,10}
    assert squarefree_count(100).numerator == 61
    assert squarefree_count(1).numerator == 1


def test_kfree_brute():
    for j in (2, 3, 4):
        acc = 0
        for n in range(1, 2001):
            acc += is_kfree(n, j)
            if n % 97 == 0 or n < 50:
                assert kfree_count(n, j).numerator == acc, (n, j)


@functools.lru_cache(maxsize=None)
def kfree_per_d(n, j):
    """sum of mu(d) * (n // d^j) over d <= n^(1/j), one Python int at a time."""
    dmax = iroot(n, j)
    mu = sieve.shared_tables(dmax).mu[: dmax + 1].tolist()
    return sum(mu[d] * (n // d**j) for d in range(1, dmax + 1) if mu[d])


def assert_kfree_warm_and_cold(n, j):
    """kfree_count from the table the process has (a summed prefix longer than
    n^(1/j) leaves nothing to the recurrence) and from a cold base."""
    assert kfree_count(n, j).numerator == kfree_per_d(n, j), (n, j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_base_table", lambda n, j: (_base_size(n, j),
                                                       sieve.shared_tables(_base_size(n, j))))
        assert kfree_count(n, j).numerator == kfree_per_d(n, j), (n, j, "cold")


@pytest.mark.parametrize("n", [10**6, 10**12, 2**63 - 1, 2**64 - 1, 2**64, 2**64 + 5, 10**21])
def test_kfree_matches_per_d_oracle(n):
    # below 2^64 the count is its uint64 residue; from 2^64 on the quotients
    # n // d^j no longer fit a machine word
    for j in {10**6: (2, 3), 10**12: (2,), 2**64 - 1: (4,), 2**64: (4,)}.get(n, (3,)):
        assert_kfree_warm_and_cold(n, j)


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2**40), st.integers(2**64 - 2**40, 2**64 + 2**40)),
    j=st.integers(5, 16),
)
@example(n=2**64 - 1, j=5)
@example(n=2**64, j=5)
def test_kfree_matches_per_d_oracle_near_2_pow_64(n, j):
    assert_kfree_warm_and_cold(n, j)


#: Squarefree counts Q(10^k) for k = 12..17 (OEIS A071172).
SQUAREFREE_POW10 = [607927102274, 6079271018294, 60792710185947, 607927101854103,
                    6079271018540405, 60792710185403794]


def test_squarefree_oeis_powers_of_ten():
    for k, count in enumerate(SQUAREFREE_POW10, start=12):
        assert squarefree_count(10**k).numerator == count, k


def run_fresh(code, *args):
    """The JSON that code prints, run in a fresh interpreter with args under
    the default sieve cap."""
    env = {k: v for k, v in os.environ.items() if k != SIEVE_LIMIT_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_squarefree(ns):
    """Squarefree counts at ns, in order, and the peak RSS in MB, from a fresh
    interpreter. The peak is VmHWM, which starts afresh at exec (ru_maxrss
    keeps the parent's peak across it)."""
    code = (
        "import json, re, sys\n"
        "from coprime_lab import exact\n"
        "counts = [exact.squarefree_count(int(n)).numerator for n in sys.argv[1:]]\n"
        "peak = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())\n"
        "print(json.dumps([counts, int(peak.group(1)) / 1024]))"
    )
    return run_fresh(code, *ns)


def test_squarefree_oeis_in_a_cold_process():
    # earlier tests leave a long table that skips the recurrence; here 10^17
    # runs alone, and then each n asks for more than twice the last table,
    # so every count takes its cold route. 10^17 reads M and never Phi: with
    # Phi summed too, it peaks at 156 MB.
    counts, rss_mb = fresh_squarefree([10**17])
    assert counts == SQUAREFREE_POW10[5:]
    assert rss_mb < 130
    counts, _ = fresh_squarefree([10**k for k in range(12, 17)])
    assert counts == SQUAREFREE_POW10[:5]


def test_pair_count_holds_at_most_13_bytes_per_table_index():
    # n = 1e9 reads a 10^6-entry table: int8 mu, int32 phi and int64 Phi
    # while Phi is summed, 13 bytes an index; Phi then replaces phi and M is
    # int16, 11 bytes. The 2 MB cover the recurrences' own arrays.
    code = (
        "import json, tracemalloc\n"
        "from coprime_lab import exact, sieve\n"
        "tracemalloc.start()\n"
        "num = exact.coprime_pair_count(10**9).numerator\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "t = sieve._shared\n"
        "print(json.dumps([num, peak, t.limit, t._phi is None,"
        " str(t.phi_sum.dtype), str(t.mu_sum.dtype)]))"
    )
    num, peak, limit, phi_released, phi_sum, mu_sum = run_fresh(code)
    assert num == PHI_POW10[8] - 1 and limit == 10**6
    assert peak < 13 * (limit + 1) + 2 * 2**20, peak
    assert (phi_released, phi_sum, mu_sum) == (True, "int64", "int16")


def test_kfree_sieve_oracle_1e6():
    # per-element oracle: mu(m) != 0 exactly for squarefree m
    from coprime_lab.sieve import shared_tables

    n = 10**6
    t = shared_tables(n)
    assert squarefree_count(n).numerator == int(np.count_nonzero(t.mu[1 : n + 1]))


def test_kfree_density_gaps():
    assert abs(kfree_count(10**6, 2).value - 0.607927) < 1e-3
    assert abs(kfree_count(10**6, 3).value - constants.inv_zeta(3).value) < 1e-3


def test_kfree_errors():
    with pytest.raises(ValueError):
        kfree_count(10, 1)
    with pytest.raises(ValueError):
        kfree_count(10, 17)


# ---------------------------------------------------------------------------
# visible lattice points
# ---------------------------------------------------------------------------


def brute_visible(radius):
    num = den = 0
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if x == y == 0 or x * x + y * y > radius * radius:
                continue
            den += 1
            num += gcd(abs(x), abs(y)) == 1
    return num, den


def row_scan_visible(radius):
    """(numerator, denominator) from one gcd per first-quadrant row x."""
    num, den = 4, 4 * radius
    for x in range(1, radius + 1):
        ymax = math.isqrt(radius * radius - x * x)
        if ymax:
            ys = np.arange(1, ymax + 1, dtype=np.int64)
            num += 4 * int(np.count_nonzero(np.gcd(np.int64(x), ys) == 1))
            den += 4 * ymax
    return num, den


def test_visible_matches_row_scan():
    radii = list(range(1, 301)) + sorted(random.Random(11).sample(range(301, 2001), 12)) + [2000]
    for radius in radii:
        r = visible_points_in_disk(radius)
        assert (r.numerator, r.denominator) == row_scan_visible(radius), radius


def test_fgcd_cap_refused_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("floored a block")

    spec = FunctionSpec.sqrt2_times_n()
    monkeypatch.setattr(exact, "_floor_lanes", no_block)
    with pytest.raises(ResourceLimitError, match="capped at n = 1e"):
        f_gcd_density(FGCD_MAX + 1, spec)
    with pytest.raises(AssertionError, match="floored a block"):
        f_gcd_density(FGCD_MAX, spec)


@pytest.mark.parametrize("c, refusal", [
    ("3/2", None), ("7/2", ResourceLimitError), ("15/2", ResourceLimitError),
    ("2001/2", ResourceLimitError), ("200001/2", OverflowError),
])
def test_fgcd_root_budget_decided_before_any_block(c, refusal, monkeypatch):
    # at n = 1e7, r = floor(m^c) passes 2^52 from m = 29,720 on for c = 7/2
    # and from m = 123 on for c = 15/2, and c = 2001/2 overflows every float
    # product: each sends nearly every lane to floor_f, tens of seconds or
    # more, while n^3/2 sends none; c = 200001/2 passes floor_f's bit guard
    def no_block(*args):
        raise AssertionError("floored a block")

    monkeypatch.setattr(exact, "_floor_lanes", no_block)
    with pytest.raises(refusal or AssertionError, match=None if refusal else "floored a block"):
        f_gcd_density(FGCD_MAX, FunctionSpec.n_pow_c(c))


def test_visible_cap_refused_before_any_table(monkeypatch):
    def no_table(limit):
        raise AssertionError(f"asked for a table up to {limit}")

    monkeypatch.setattr(exact, "shared_tables", no_table)
    with pytest.raises(ResourceLimitError):
        visible_points_in_disk(2 * 10**7)


def test_visible_examples():
    r = visible_points_in_disk(1)
    assert (r.numerator, r.denominator, r.value) == (4, 4, 1.0)
    r = visible_points_in_disk(5)
    assert (r.numerator, r.denominator, r.value) == (48, 80, 0.6)


def test_visible_brute_up_to_100():
    for radius in (2, 3, 7, 20, 41, 100):
        num, den = brute_visible(radius)
        r = visible_points_in_disk(radius)
        assert (r.numerator, r.denominator) == (num, den), radius


def test_visible_denominator_is_gauss_count_minus_one():
    # lattice points in the closed disk, origin excluded
    for radius in (1, 5, 12, 50):
        pts = sum(
            1
            for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
            if x * x + y * y <= radius * radius
        )
        assert visible_points_in_disk(radius).denominator == pts - 1
    # OEIS A000328 counts the same points, origin included
    for radius, pts in ((10**4, 314159053), (10**5, 31415925457), (10**6, 3141592649625)):
        assert visible_points_in_disk(radius).denominator == pts - 1


def test_visible_large():
    r = visible_points_in_disk(1000)
    assert abs(r.value - 0.607927) < 3e-3


# ---------------------------------------------------------------------------
# gcd(m, floor(f(m)))
# ---------------------------------------------------------------------------


def test_function_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec.n_pow_c(2)  # integer exponent
    with pytest.raises(ValueError):
        FunctionSpec.alpha_times_n(0)
    with pytest.raises(ValueError):
        FunctionSpec.n_pow_c("-1/2")
    assert FunctionSpec.sqrt2_times_n() == FunctionSpec(2, 2, 1, 2, "sqrt2*n")
    assert FunctionSpec.n_pow_c(Fraction(3, 2)) == FunctionSpec(1, 3, 1, 2, "n^3/2")
    assert FunctionSpec.alpha_times_n("1.25") == FunctionSpec(5, 1, 4, 1, "5/4*n")


def test_floor_f_refuses_huge_m():
    # the message names f by its label and m by its bit length, never m itself
    with pytest.raises(OverflowError, match="sqrt2\\*n at a 600001-bit m"):
        floor_f(FunctionSpec.sqrt2_times_n(), 2**600000)
    with pytest.raises(OverflowError, match="n\\^3/2"):
        floor_f(FunctionSpec.n_pow_c("3/2"), 2**400000)


def test_iroot_exact():
    for x in list(range(0, 300)) + [10**12, 10**13 + 7, 2**62, 7**30]:
        for k in range(1, 12):
            r = iroot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)
    # x < 2^k has root 1; the CLI test of c = 1e-400 covers a huge k
    for x, k, r in ((2**64 - 1, 64, 1), (2**64, 64, 2), (2**200 - 1, 100, 3), (2**200, 100, 4)):
        assert iroot(x, k) == r, (x, k)


def test_floor_f_equals_iroot_at_root_boundaries():
    # floor_f takes math.isqrt for q = 2; iroot's Newton is the reference, at
    # A m^p // B one below a perfect square, on it and one above it
    sqrt_n = FunctionSpec(1, 1, 1, 2, "n^1/2")
    for r in (1, 2, 3, 2**26 + 1, 2**52 - 1, 10**40 + 7, 3**500):
        for m in (r * r - 1, r * r, r * r + 1):
            if m >= 1:
                assert floor_f(sqrt_n, m) == iroot(m, 2), m
    # sqrt(2) m at the Pell solutions r^2 - 2 m^2 = -1, +1, -1, ...
    s2 = FunctionSpec.sqrt2_times_n()
    r, m = 1, 1
    for _ in range(60):
        assert floor_f(s2, m) == iroot(2 * m * m, 2) == r - (r * r > 2 * m * m), m
        r, m = r + 2 * m, r + m
    # 40,000-bit operands: m^1001 is a square at m = k^2
    wide = FunctionSpec(1, 1001, 1, 2, "n^1001/2")
    k = 10**6 + 3
    for m in (k * k - 1, k * k, k * k + 1):
        assert floor_f(wide, m) == iroot(m**1001, 2), m


def test_floor_f_against_mpmath():
    mpmath.mp.dps = 60
    s2 = FunctionSpec.sqrt2_times_n()
    p15 = FunctionSpec.n_pow_c(Fraction(3, 2))
    a = FunctionSpec.alpha_times_n(Fraction(5, 4))
    for m in list(range(1, 500)) + [10**6, 10**9]:
        assert floor_f(s2, m) == int(mpmath.floor(mpmath.sqrt(2) * m)), m
        assert floor_f(p15, m) == int(mpmath.floor(mpmath.mpf(m) ** (mpmath.mpf(3) / 2))), m
        assert floor_f(a, m) == 5 * m // 4, m


def test_fgcd_sqrt2_example():
    # floors for m = 1..10 are 1,2,4,5,7,8,9,11,12,14; six of the pairs are coprime
    r = f_gcd_density(10, FunctionSpec.sqrt2_times_n())
    assert (r.numerator, r.denominator) == (6, 10)


def test_fgcd_trivial_pow():
    r = f_gcd_density(1, FunctionSpec.n_pow_c(Fraction(3, 2)))
    assert (r.numerator, r.denominator, r.value) == (1, 1, 1.0)


def test_fgcd_brute_small():
    mpmath.mp.dps = 40
    for spec, f in (
        (FunctionSpec.sqrt2_times_n(), lambda m: mpmath.sqrt(2) * m),
        (FunctionSpec.n_pow_c(Fraction(3, 2)), lambda m: mpmath.mpf(m) ** mpmath.mpf("1.5")),
        (FunctionSpec.alpha_times_n(Fraction(41, 29)), lambda m: mpmath.mpf(41) * m / 29),
    ):
        for n in (2, 17, 300):
            brute = sum(1 for m in range(1, n + 1) if gcd(m, int(mpmath.floor(f(m)))) == 1)
            assert f_gcd_density(n, spec).numerator == brute, (spec, n)


def test_fgcd_vector_path_matches_scalar():
    spec = FunctionSpec.sqrt2_times_n()
    n = 3000
    r = f_gcd_density(n, spec)
    brute = sum(1 for m in range(1, n + 1) if gcd(m, floor_f(spec, m)) == 1)
    assert r.numerator == brute


def test_fgcd_pow15_integer_oracle_large():
    # floor(m^1.5) = isqrt(m^3); from n = 2^20 on, m^3 no longer fits int64
    spec = FunctionSpec.n_pow_c(Fraction(3, 2))
    checkpoints = (10**6, 2**20 - 1, 2**20)
    oracle = {}
    count = 0
    for m in range(1, 2**20 + 1):
        count += gcd(m, math.isqrt(m**3)) == 1
        if m in checkpoints:
            oracle[m] = count
    assert oracle == {10**6: 602415, 2**20 - 1: 631650, 2**20: 631650}
    for n in checkpoints:
        assert f_gcd_density(n, spec).numerator == oracle[n], n


def test_fgcd_sqrt2_large_gap():
    r = f_gcd_density(10**6, FunctionSpec.sqrt2_times_n())
    assert abs(r.value - 0.607927) < 5e-3


def test_fgcd_zero_floor_convention():
    # f(m) = m/1000 floors to 0 for m < 1000; only m = 1 counts there
    spec = FunctionSpec.alpha_times_n(Fraction(1, 1000))
    r = f_gcd_density(10, spec)
    assert r.numerator == 1


def test_fgcd_alpha_denominator_past_int64():
    # alpha = 1/10^30 floors every m <= 10 to 0
    r = f_gcd_density(10, FunctionSpec.alpha_times_n(Fraction(1, 10**30)))
    assert (r.numerator, r.denominator) == (1, 10)


FGCD_FORMS = (
    [FunctionSpec.sqrt2_times_n()]
    + [FunctionSpec.alpha_times_n(a) for a in (
        Fraction(1, 3), Fraction(22, 7), Fraction(1, 10**30), Fraction(10**12), Fraction(10**30 + 7, 10**29))]
    + [FunctionSpec.n_pow_c(Fraction(c)) for c in ("1/2", "3/4", "5/4", "3/2", "7/3", "5/2", "7/2")]
)


@pytest.mark.parametrize("spec", FGCD_FORMS + [FunctionSpec.n_pow_c(c) for c in ("13/2", "53/7", "2001/2")])
def test_unproven_lane_count_is_the_lanes_past_2_52(spec):
    # the lanes _floor_lanes is certain not to prove: r >= 2^52, or every
    # lane once max(p, q) + 1 > 1025 (c = 2001/2), when the products overflow
    A, p, B, q = spec.A, spec.p, spec.B, spec.q
    if q == 1:
        A %= B
    n = 2000
    certain = n if p > 1024 else sum(floor_f(spec, m) >= 2**52 for m in range(1, n + 1))
    assert _unproven_lanes(n, A, p, B, q) == certain


@st.composite
def fgcd_lanes(draw):
    """A growth function and lanes m: of every bit length up to 41 (so r
    passes 2^52 for several forms) and m = B*k^q, where A*m^p = B*r^q."""
    spec = draw(st.sampled_from(FGCD_FORMS))
    B, q = spec.B, spec.q
    sized = st.integers(0, 40).flatmap(lambda b: st.integers(2**b, 2 ** (b + 1) - 1))
    tie = st.integers(1, 2**13).map(lambda k: min(B * k**q, 2**50))
    lanes = st.one_of(sized, tie)
    return spec, draw(st.lists(lanes, min_size=1, max_size=64))


@settings(max_examples=400, deadline=None)
@given(fgcd_lanes())
def test_floor_lanes_proven_only_when_exact(case):
    spec, lanes = case
    A, p, B, q = spec.A, spec.p, spec.B, spec.q
    r, proven = exact._floor_lanes(A, p, B, q, np.array(lanes, dtype=np.int64))
    for m, rm, ok in zip(lanes, r.tolist(), proven.tolist()):
        if ok:
            assert rm == floor_f(spec, m), (spec, m)
        # a quotient or square root below 2^50 is estimated exactly (correctly
        # rounded), so every such lane is proven, ties by their residues
        if q <= 2 and A * m**p < 2**50:
            assert ok, (spec, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FGCD_FORMS), st.integers(1, 20_000))
@example(FunctionSpec.n_pow_c("7/2"), 40_000)  # five blocks; r passes 2^52 past m = 29,000
def test_fgcd_counts_match_brute_force(spec, n):
    brute = sum(1 for m in range(1, n + 1) if gcd(m, floor_f(spec, m)) == 1)
    assert f_gcd_density(n, spec).numerator == brute, (spec, n)


@pytest.mark.parametrize("spec, n, count", [
    (FunctionSpec.sqrt2_times_n(), 10**6, 607925),
    (FunctionSpec.n_pow_c("1.25"), 10**5, 60653),
    (FunctionSpec.n_pow_c("1.5"), 10**6, 602415),
    (FunctionSpec.n_pow_c("1.5"), 2**20, 631650),
])
def test_fgcd_pinned_counts_prove_every_lane(spec, n, count, monkeypatch):
    def no_python_lane(spec, m):
        raise AssertionError(f"lane m = {m} left unproven")

    monkeypatch.setattr(exact, "floor_f", no_python_lane)
    assert f_gcd_density(n, spec).numerator == count


# ---------------------------------------------------------------------------
# prime density
# ---------------------------------------------------------------------------


def test_prime_density():
    r = prime_density(10**6)
    assert r.numerator == 78498
    assert r.reference == 0.0
    vals = [prime_density(10**e).value for e in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def boolean_sieve_primes(limit):
    """Ascending primes <= limit by a one-byte-per-index Eratosthenes sieve."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def test_prime_count_matches_boolean_sieve():
    primes = boolean_sieve_primes(10**7)
    rng = random.Random(10)
    small = primes[primes <= math.isqrt(10**7 - 2)].tolist()
    squares = [p * p + e for p in rng.sample(small, 40) + small[:5] + small[-5:] for e in (-1, 0, 1)]
    for x in list(range(1, 5001)) + rng.sample(range(5001, 10**7), 150) + squares:
        pi = int(np.searchsorted(primes, x, side="right"))
        assert prime_density(x).numerator == pi, x


# pi(10^k), k = 0..11 (OEIS A006880)
PI_POW10 = [0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511,
            4118054813]


def test_prime_count_oeis_powers_of_ten():
    for k, pi in enumerate(PI_POW10):
        r = prime_density(10**k)
        assert (r.numerator, r.denominator) == (pi, 10**k), k


def test_prime_density_reads_a_sqrt_table(monkeypatch):
    limits = []

    def recording_build(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(sieve, "_shared", None)
    monkeypatch.setattr(sieve, "build_sieve", recording_build)
    r = prime_density(10**7)
    assert (r.numerator, r.denominator) == (664579, 10**7)
    assert limits and max(limits) <= math.isqrt(10**7)


def test_density_result_value_is_exact_quotient():
    for r in (coprime_pair_count(10), squarefree_count(100), visible_points_in_disk(5)):
        assert r.value == r.numerator / r.denominator
        assert 0 <= r.numerator <= r.denominator


@pytest.mark.parametrize(
    "count, args",
    [
        (coprime_pair_count, (2**32 - 1,)),
        (coprime_pair_count, (2**32,)),
        (odd_coprime_pair_count, (2**32 - 1,)),
        (odd_coprime_pair_count, (2**32,)),
        (ktuple_coprime_count, (2_642_245, 3)),
        (ktuple_coprime_count, (2_642_246, 3)),
        (ktuple_coprime_count, (84, 10)),
        (ktuple_coprime_count, (85, 10)),
        # squarefree n >= 2^64 would need a base table past 4e7, beyond the sieve cap
        (squarefree_count, (10**12,)),
        (kfree_count, (2**64 - 1, 4)),
        (kfree_count, (2**64, 4)),
    ],
)
def test_numerators_are_python_ints(count, args):
    # json.dumps refuses numpy integers, so a uint64 numerator would fail
    # every record that carries it
    r = count(*args)
    assert type(r.numerator) is int and type(r.denominator) is int
    if count is coprime_pair_count:
        assert type(coprime_ordered_count_mobius(args[0])) is int
