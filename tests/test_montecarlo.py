import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprime_lab import constants, exact, montecarlo
from coprime_lab.gaussian import GaussianInt, is_coprime
from coprime_lab.montecarlo import (
    BATCH_SIZE,
    RngStream,
    batch_seed,
    det_bareiss,
    estimate_coprime_pair,
    estimate_det_coprime,
    estimate_gaussian_coprime,
    estimate_pairwise_triple,
    gaussian_coprime_mask,
    mix64,
    wilson_interval,
    _CRT_PRIMES,
    _DET_BLOCK,
    _exact_dets,
    _crt_primes_for,
    _det_route,
    _divisible_by_3,
)

# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1


def ref_splitmix(seed, n):
    """Independent scalar transcription of the reference generator."""
    out = []
    s = seed & MASK64
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & MASK64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix_reference_vectors():
    # first outputs for seed 0, as published for the reference implementation
    assert ref_splitmix(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    s = RngStream(0)
    assert [int(w) for w in s.words(3)] == ref_splitmix(0, 3)


def test_stream_matches_scalar_reference_across_blocks():
    seed = 0xDEADBEEF12345678
    want = ref_splitmix(seed, 100)
    s = RngStream(seed)
    got = [int(w) for w in s.words(7)]
    got += [int(s.words(1)[0]) for _ in range(3)]
    got += [int(w) for w in s.words(90)]
    assert got == want


def test_mix64_and_batch_seed_are_stable():
    assert mix64(0) == 0
    assert batch_seed(42, 0) == mix64((42 + 0x9E3779B97F4A7C15) & MASK64)
    assert batch_seed(42, 1) != batch_seed(42, 0)
    assert batch_seed(42, 1) == batch_seed(42, 1)


def test_uniform_below_range_and_determinism():
    for m in (2, 7, 1000, 10**6, 10**9, 1 << 40):
        a = RngStream(5).uniform_below(m, 2000)
        b = RngStream(5).uniform_below(m, 2000)
        assert np.array_equal(a, b)
        assert int(a.max()) < m and int(a.min()) >= 0
    assert np.all(RngStream(1).uniform_below(1, 50) == 0)
    with pytest.raises(ValueError):
        RngStream(1).uniform_below(0, 1)


def ref_uniform_below(seed, m, count):
    """The first count accepted draws of the stream, one word at a time: m up
    to 2^32 splits each word into its low then its high 32-bit half."""
    bits = 32 if m <= 1 << 32 else 64
    lim = (1 << bits) // m * m
    out = []
    for w in ref_splitmix(seed, 4 * count + 8):
        for lane in (w & 0xFFFFFFFF, w >> 32) if bits == 32 else (w,):
            if lane < lim and len(out) < count:
                out.append(lane % m)
    return out


@pytest.mark.parametrize("m", [2, 3, 6, 1000, 999999, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40 + 7, 2**62])
def test_uniform_below_is_the_first_accepted_lanes(m):
    for count in (1, 7, 600):
        got = RngStream(m + count).uniform_below(m, count)
        assert got.tolist() == ref_uniform_below(m + count, m, count), (m, count)


# Two consecutive uniform_below(m, count) calls from RngStream(m + count):
# per count in (1, 7, 65536), the words drawn (_idx after both) and the first
# 16 hex digits of the SHA-256 of both outputs as little-endian int64. Recorded
# from the stream before its draw path was rewritten in place; 2^31 + 1 and
# 3 * 2^60 reject about half and a sixteenth of their lanes. 2^31 - 1 and
# 2^31 sit on the lane boundary (int32 below 2^31, int64 from it on) and were
# recorded while every draw still came back in int64.
STREAM_PINS = {
    2: ((10, "814dd7b9784d57c1"), (16, "e73b6b2d044211f0"), (65544, "62db6f293454158d")),
    3: ((10, "fa7c63f601691b95"), (16, "2d8bb74fa2bc2042"), (65544, "83c768fb820c5655")),
    6: ((10, "814dd7b9784d57c1"), (16, "3ee96ec0dce98c62"), (65544, "ff6f83b07bfcefbe")),
    1000: ((10, "a8546eab41eb015e"), (16, "a4d172d4d7da7381"), (65544, "72f36f82dd1c6515")),
    999999: ((10, "497a9c255e647a71"), (16, "f7b824d9ba456059"), (65559, "d7cc0019e71909ca")),
    2**31 - 1: ((10, "8c203a0d39770ab1"), (16, "51cc0cc80cab811b"), (65544, "1d3054d5460efa02")),
    2**31: ((10, "4e7b30e380c016ca"), (16, "eeb806782361685b"), (65544, "d668c7a5348e19f4")),
    2**31 + 1: ((10, "ba31b3ec630c85f6"), (16, "f63f948a102475d2"), (131524, "9f5e5d021abc2903")),
    2**32 - 1: ((10, "c707834988bc7a94"), (16, "cd353d0f55c44ae4"), (65544, "286ff405d9ebbf34")),
    2**32: ((10, "8a9c56cb97e9acf9"), (16, "b37e628257dad87c"), (65544, "8e78c6c708bfd2ab")),
    2**32 + 1: ((10, "31a4ea63e43c0a4a"), (22, "18f0d9f98f813f52"), (131080, "0eaa33245de1615f")),
    3 * 2**60: ((10, "a3f7e883ba3718a6"), (22, "5fa58bbe518dda59"), (139800, "fdd8ecb14a2b606d")),
    2**62: ((10, "804bf3326479850e"), (22, "f66b79c8478542fb"), (131080, "9b7bbcdc7e7bc1dc")),
}


@pytest.mark.parametrize("m", sorted(STREAM_PINS))
def test_uniform_below_stream_pinned_across_calls(m):
    for count, (idx, digest) in zip((1, 7, 65536), STREAM_PINS[m]):
        s = RngStream(m + count)
        a = s.uniform_below(m, count)
        b = s.uniform_below(m, count)
        assert a.dtype == b.dtype == (np.int32 if m < 2**31 else np.int64)
        got = hashlib.sha256(a.astype("<i8").tobytes() + b.astype("<i8").tobytes()).hexdigest()
        assert (s._idx, got[:16]) == (idx, digest), (m, count)


@pytest.mark.parametrize("m", sorted(STREAM_PINS))
def test_blocks_concatenate_to_uniform_below(m):
    # sizes 1 and 7, and one that does not divide count, across word blocks
    for count, size in ((600, 1), (70_000, 7), (70_000, 30_000)):
        whole = RngStream(m + count)
        want = whole.uniform_below(m, count)
        s = RngStream(m + count)
        got = list(s.blocks(m, count, size))
        assert [len(b) for b in got] == [min(size, count - lo) for lo in range(0, count, size)]
        assert all(b.dtype == want.dtype for b in got)
        assert np.array_equal(np.concatenate(got), want) and s._idx == whole._idx, (m, count, size)


def test_blocks_that_draw_nothing():
    s = RngStream(4)
    assert [b.tolist() for b in s.blocks(1, 10, 4)] == [[0] * 4, [0] * 4, [0, 0]]
    assert [b.tolist() for b in s.blocks(5, 0, 3)] == [[]]
    assert s._idx == 0 and s.uniform_below(5, 0).tolist() == []
    with pytest.raises(ValueError):
        next(s.blocks(5, 10, 0))


def test_uniform_below_holds_only_its_output():
    # a dim-6 stack's draw: its int32 output plus one block of words at a time
    count = 36 * BATCH_SIZE
    tracemalloc.start()
    try:
        out = RngStream(3).uniform_below(1000, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int32 and out.nbytes == 4 * count
    assert peak <= out.nbytes + 2**20


def test_uniform_below_hits_all_small_residues():
    vals = RngStream(9).uniform_below(6, 20000)
    counts = np.bincount(vals.astype(np.int64), minlength=6)
    assert np.all(counts > 2800)  # expectation ~3333 each


def test_uniform_signed_covers_box():
    v = RngStream(2).uniform_signed(3, 20000)
    assert set(np.unique(v).tolist()) == set(range(-3, 4))


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------


def test_wilson_example():
    lo, hi = wilson_interval(607, 1000)
    assert lo == pytest.approx(0.576, abs=5e-4)
    assert hi == pytest.approx(0.637, abs=5e-4)


def test_wilson_clamps():
    lo, _ = wilson_interval(0, 50)
    _, hi = wilson_interval(50, 50)
    assert lo == 0.0 and hi == 1.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12), st.sampled_from(["0", "1", "t-1", "t"]))
def test_wilson_extremes(trials, which):
    successes = {"0": 0, "1": 1, "t-1": trials - 1, "t": trials}[which]
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0, (successes, trials, lo, hi)
    if successes == 0:
        assert lo == 0.0
    if successes == trials:
        assert hi == 1.0


def test_wilson_errors():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# ---------------------------------------------------------------------------
# pair and triple estimators
# ---------------------------------------------------------------------------


def test_pair_degenerate_range():
    est = estimate_coprime_pair(1, 500, seed=0)
    assert est.estimate == 1.0  # only the pair (1, 1)


def test_pair_reproducible_and_thread_invariant():
    a = estimate_coprime_pair(10**6, 3 * BATCH_SIZE + 17, seed=21, threads=1)
    b = estimate_coprime_pair(10**6, 3 * BATCH_SIZE + 17, seed=21, threads=4)
    c = estimate_coprime_pair(10**6, 3 * BATCH_SIZE + 17, seed=21, threads=1)
    assert a.successes == b.successes == c.successes
    assert 0 <= a.ci_low <= a.estimate <= a.ci_high <= 1


@pytest.mark.parametrize("range_max", [1, 2, 3, 1000, 2**31 - 1, 2**31, 2**62])
def test_pair_count_is_scalar_gcd_count_over_the_same_draws(range_max):
    # two batches; the estimator drops pairs with a common factor 2 or 3
    # before its gcd, in int32 lanes up to 2^31 - 1 and int64 above
    trials = BATCH_SIZE + 3000
    want = 0
    for b, cnt in enumerate((BATCH_SIZE, 3000)):
        s = RngStream(batch_seed(17, b))
        i = s.uniform_below(range_max, cnt).tolist()
        k = s.uniform_below(range_max, cnt).tolist()
        want += sum(math.gcd(x + 1, y + 1) == 1 for x, y in zip(i, k))
    assert estimate_coprime_pair(range_max, trials, seed=17).successes == want


@pytest.mark.parametrize("range_max", [1000, 2**31 - 1, 2**31, 2**62])
def test_triple_count_is_scalar_gcd_count_over_the_same_draws(range_max):
    # int32 gcd lanes up to 2^31 - 1, int64 above; the estimator drops triples
    # with two entries even or two divisible by 3 before its gcds
    trials = BATCH_SIZE + 3000
    want = 0
    for b, cnt in enumerate((BATCH_SIZE, 3000)):
        s = RngStream(batch_seed(19, b))
        a, c, d = (s.uniform_below(range_max, cnt).tolist() for _ in range(3))
        want += sum(
            math.gcd(x + 1, y + 1) == math.gcd(x + 1, z + 1) == math.gcd(y + 1, z + 1) == 1
            for x, y, z in zip(a, c, d)
        )
    assert estimate_pairwise_triple(range_max, trials, seed=19).successes == want


@pytest.mark.parametrize("dtype", [np.uint32, np.int32, np.int64, np.uint64])
def test_divisible_by_3_is_exact_at_the_lane_edges(dtype):
    top = np.iinfo(dtype).max
    edges = (0, 1, 2, 3, 2**31 - 1, 2**32 - 3, 2**32 - 1, 2**62, 2**64 - 3, 2**64 - 1)
    vals = [v for v in edges if v <= top]
    vals += [top - 2, top - 1, top]
    got = _divisible_by_3(np.array(vals, dtype=dtype)).tolist()
    assert got == [v % 3 == 0 for v in vals]


def test_pool_workers_bounded_by_batches_and_cpus(monkeypatch):
    workers = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    trials = 5 * BATCH_SIZE + 3  # 6 batches
    serial = estimate_coprime_pair(10**6, trials, seed=21, threads=1).successes
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    for cpus, expected in ((4, 4), (64, 6)):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        assert estimate_coprime_pair(10**6, trials, seed=21, threads=100_000).successes == serial
        assert workers.pop() == expected
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert estimate_coprime_pair(10**6, trials, seed=21, threads=100_000).successes == serial
    assert workers == []


def test_pool_memory_does_not_grow_with_the_batch_count(monkeypatch):
    # submitting every batch before the first result held about 1.7 KB per
    # batch, 16 MB for these 10^4 trivial batches
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    nb = 10**4
    tracemalloc.start()
    try:
        total = montecarlo._run_batches(nb * BATCH_SIZE, 1, lambda stream, cnt: 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == nb
    assert peak < 2**20


def test_pair_covers_exact_density():
    # ordered-with-repetition target: (2 Phi(100) - 1) / 100^2
    target = (2 * exact.totient_sum(100) - 1) / 100**2
    est = estimate_coprime_pair(100, 100_000, seed=7)
    assert est.ci_low <= target <= est.ci_high


def test_pair_coverage_calibration():
    """95% Wilson intervals catch the known density for >= 90 of 100 seeds."""
    target = (2 * exact.totient_sum(100) - 1) / 100**2
    hits = sum(
        1
        for s in range(100)
        if (
            lambda e: e.ci_low <= target <= e.ci_high
        )(estimate_coprime_pair(100, 2000, seed=s))
    )
    assert hits >= 90


def test_triple_degenerate_and_exact_cross_check():
    assert estimate_pairwise_triple(1, 100, seed=0).estimate == 1.0
    target = exact.pairwise_coprime_triple_count(50).value
    est = estimate_pairwise_triple(50, 100_000, seed=11)
    assert est.ci_low <= target <= est.ci_high


def test_estimate_params_record_sampling_model():
    est = estimate_coprime_pair(500, 100, seed=1)
    assert est.params["range_max"] == 500
    assert est.params["generator"] == "splitmix64"
    assert est.params["batch_size"] == BATCH_SIZE
    assert est.kind == "pair" and est.seed == 1


# ---------------------------------------------------------------------------
# Gaussian estimator
# ---------------------------------------------------------------------------


def _mask_agrees_with_scalar_gcd(lanes):
    zr, zi, wr, wi = (np.array(c, dtype=np.int64) for c in zip(*lanes))
    got = gaussian_coprime_mask(zr, zi, wr, wi).tolist()
    for (a, b, c, d), ok in zip(lanes, got):
        assert ok == is_coprime(GaussianInt(a, b), GaussianInt(c, d)), (a, b, c, d)


def test_gaussian_mask_matches_scalar_gcd():
    # every lane of [-4, 4]^4, one operand zero included, but the both-zero
    # one: its gcd is undefined and the mask gives False
    box = [v for v in itertools.product(range(-4, 5), repeat=4) if any(v)]
    _mask_agrees_with_scalar_gcd(box)
    assert not gaussian_coprime_mask(*(np.zeros(1, dtype=np.int64),) * 4)[0]


def test_gaussian_mask_near_the_coordinate_cap():
    # coordinates within 2^12 of +-2^30, with and without a planted common
    # factor 1+i, 2+i or 3+2i (norms 2, 5, 13), and units or zero against them
    rng = random.Random(12)
    big = 2**30
    edge = [(1, 0, 0, 0), (0, -1, big, big), (big, 0, 0, 0), (0, 0, 0, 1), (big, big - 1, 0, 0), (0, 0, big, -big)]
    lanes, planted = [], []
    for _ in range(300):
        a, b, c, d = (rng.choice((-1, 1)) * (big - rng.randrange(4096)) for _ in range(4))
        lanes.append((a, b, c, d))
        g = GaussianInt(*rng.choice(((1, 1), (2, 1), (3, 2))))
        k = g.re + g.im  # keeps u * g inside the cap
        z = GaussianInt(a // k, b // k) * g
        w = GaussianInt(c // k, d // k) * g
        planted.append((z.re, z.im, w.re, w.im))
    assert all(abs(v) <= big for lane in lanes + planted for v in lane)
    _mask_agrees_with_scalar_gcd(edge + lanes + planted)
    assert not gaussian_coprime_mask(*(np.array(c, dtype=np.int64) for c in zip(*planted))).any()


@pytest.mark.parametrize("box", [2**15 - 1, 2**15, 2**16])
def test_gaussian_mask_at_the_int32_edge(box):
    # int32 lanes while every |coordinate| < 2^15, int64 from 2^15 on; the
    # terms reach 2 * box^2, next to 2^31 at the edge and past it at 2^16
    rng = random.Random(box)
    lanes = [(box, box, box, -box), (-box, box, 1, 0), (box, box - 1, box - 1, box)]
    for _ in range(400):
        lanes.append(tuple(rng.choice((-1, 1)) * (box - rng.randrange(64)) for _ in range(4)))
        g = GaussianInt(*rng.choice(((1, 1), (2, 1), (3, 2))))
        z = GaussianInt(rng.randrange(box // 5), rng.randrange(box // 5)) * g
        w = GaussianInt(rng.randrange(box // 5), -rng.randrange(box // 5)) * g
        lanes.append((z.re, z.im, w.re, w.im))
    assert max(abs(v) for lane in lanes for v in lane) == box
    _mask_agrees_with_scalar_gcd([lane for lane in lanes if any(lane)])


def test_gaussian_units_always_coprime():
    units = [GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1)]
    rng = random.Random(6)
    for u in units:
        for _ in range(50):
            w = GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))
            if not w.is_zero():
                assert is_coprime(u, w)


def test_gaussian_sampler_covers_exhaustive_density():
    # full enumeration over the 120 x 120 nonzero box at B = 5
    pts = [GaussianInt(a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)]
    hits = sum(1 for z in pts for w in pts if is_coprime(z, w))
    target = hits / len(pts) ** 2
    est = estimate_gaussian_coprime(5, 200_000, seed=3)
    assert est.ci_low <= target <= est.ci_high


def test_gaussian_large_box_near_constant():
    est = estimate_gaussian_coprime(1000, 200_000, seed=5)
    assert abs(est.estimate - 0.663700) < 0.01


def test_gaussian_thread_invariance():
    a = estimate_gaussian_coprime(50, BATCH_SIZE + 4464, seed=2, threads=1)
    b = estimate_gaussian_coprime(50, BATCH_SIZE + 4464, seed=2, threads=4)
    assert a.successes == b.successes


def test_gaussian_never_draws_zero_vector():
    # at B = 1 a third of raw draws are (0, 0); the sampler must redraw them
    est = estimate_gaussian_coprime(1, 50_000, seed=8)
    assert 0 < est.estimate < 1


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def test_bareiss_known_values():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 0], [0, 1]]) == 1
    assert det_bareiss([[0, 1], [1, 0]]) == -1  # needs the row swap
    assert det_bareiss([[2, 4], [1, 2]]) == 0
    assert det_bareiss([[0, 0], [0, 5]]) == 0  # all-zero pivot column


def test_bareiss_equals_cofactor_expansion():
    rng = random.Random(12)
    for _ in range(10_000):
        n = rng.randint(1, 4)
        m = [[rng.randrange(10) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == det_cofactor(m)


def exact_dets_list(mats, primes, route="crt"):
    """_exact_dets as one Python int per lane, after checking its output shape
    and that it left its input alone."""
    before = mats.copy()
    low, wide = _exact_dets(mats, primes, route)
    assert np.array_equal(mats, before)
    assert low.dtype == np.int64 and len(low) == len(mats)
    return [wide.get(i, int(v)) for i, v in enumerate(low)], wide


def test_crt_dets_match_bareiss():
    rng = np.random.default_rng(31)
    for emax, n in ((1000, 6), (10**6, 6), (50, 3)):
        primes = _crt_primes_for(n, emax - 1)
        mats = rng.integers(0, emax, size=(300, n, n), dtype=np.int64)
        # zero leading entries: the old elimination needed a fallback here
        mats[5, 0, 0] = 0
        mats[17, 0, 0] = 0
        got, _ = exact_dets_list(mats, primes)
        for i in (0, 1, 5, 17, 100, 299):
            assert got[i] == det_bareiss(mats[i].tolist()), (emax, n, i)


def hadamard_covered(dim, emax):
    """2^64 * prod(primes) > 2 * (sqrt(dim) * emax)^dim, in integers."""
    prod = 2**64 * math.prod(_crt_primes_for(dim, emax))
    return prod * prod > 4 * dim**dim * emax ** (2 * dim)


def is_prime_u64(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_crt_prime_pool_is_prime_and_sized():
    assert all(is_prime_u64(p) for p in _CRT_PRIMES)
    assert all(p < 2**28 for p in _CRT_PRIMES)
    assert list(_CRT_PRIMES) == sorted(set(_CRT_PRIMES), reverse=True)
    assert all(is_prime_u64(p) for p in _crt_primes_for(8, 10**6 - 1))
    # the moduli must cover twice the Hadamard bound, the range Garner needs
    assert hadamard_covered(6, 999)
    assert hadamard_covered(6, 10**6 - 1)
    assert hadamard_covered(8, 10**6 - 1)
    assert hadamard_covered(8, 2**62 - 1)  # the widest entries the sampler draws
    assert _crt_primes_for(5, 999) == []  # 2^64 alone covers these
    with pytest.raises(OverflowError):
        _crt_primes_for(8, 2**100)


def edge_lanes(n, emax):
    """Lanes built to be singular, to start with zeros, or to sit on the int64 edge."""
    lanes = []
    if n >= 2:
        rep = np.ones((n, n), dtype=np.int64)
        rep[0, 0] = 0
        lanes.append(rep)  # repeated rows and a zero leading entry
    lanes.append(np.zeros((n, n), dtype=np.int64))  # zero columns
    if n == 8 and 999 <= emax < 2**60:  # the float64 tier's edge (wider entries: next lanes)
        lanes.append(np.diag([999] * 8))  # wide, with a float64 digit that is not 0
        for sign in (-1, 1):
            lanes.append(np.diag([512] * 7 + [sign]))  # det -2^63 fits int64, det 2^63 does not
    if emax >= 2**60 and n >= 2:
        for sign in (-1, 1):
            d = np.eye(n, dtype=np.int64)
            d[0, 0] = sign * 2**60
            d[1, 1] = 8
            lanes.append(d)  # det -2^63 fits int64, det 2^63 does not
    if emax >= 2**60 and n >= 3:
        # det 2^64 * p_1: wide although its first Garner digit above v_0 is 0
        lanes.append(np.diag([2**60, 16, _CRT_PRIMES[0]] + [1] * (n - 3)))
    return lanes


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    bits=st.integers(1, 62),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, bits=10, signed=False, seed=1)  # the float64 route at dims 6 to 8
@example(n=7, bits=11, signed=True, seed=2)
@example(n=8, bits=10, signed=True, seed=3)
@example(n=8, bits=11, signed=False, seed=4)
def test_exact_dets_match_bareiss_property(n, bits, signed, seed):
    rng = np.random.default_rng(seed)
    emax = 2**bits - 1
    lo = -emax if signed else 0
    mats = rng.integers(lo, emax, size=(24, n, n), dtype=np.int64, endpoint=True)
    mats[1, :, n - 1] = 0  # zero column
    mats[2, 0, 0] = 0  # zero leading entry
    if n >= 2:
        mats[3, n - 1] = mats[3, 0]  # repeated row
        mats[4, :, 1] = mats[4, :, 0]  # repeated column
    mats = np.concatenate([mats, np.array(edge_lanes(n, emax)).reshape(-1, n, n)])
    route, primes = _det_route(n, emax)
    got, wide = exact_dets_list(mats, primes, route)
    for i, m in enumerate(mats):
        want = det_bareiss(m.tolist())
        assert got[i] == want, (i, m.tolist())
        assert (i in wide) == (not -(2**63) <= want < 2**63)


def test_exact_dets_int64_edge():
    dets, wide = exact_dets_list(np.array(edge_lanes(2, 2**62 - 1)), _crt_primes_for(2, 2**62 - 1))
    assert dets[-2:] == [-(2**63), 2**63]
    assert set(wide) == {len(dets) - 1}
    for n in (3, 8):
        dets, wide = exact_dets_list(np.array(edge_lanes(n, 2**62 - 1)), _crt_primes_for(n, 2**62 - 1))
        assert dets[-3:] == [-(2**63), 2**63, 2**64 * _CRT_PRIMES[0]]
        assert set(wide) == {len(dets) - 2, len(dets) - 1}


def test_float_route_edge_lanes():
    assert _det_route(8, 999) == ("float64", [])
    dets, wide = exact_dets_list(np.array(edge_lanes(8, 999)[-3:]), [], "float64")
    assert dets == [999**8, -(2**63), 2**63]
    assert set(wide) == {0, 2}


def largest_admitted(admits, top):
    """The largest e in [1, top] with admits(e), admits being monotone and true at 1."""
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if admits(mid) else (lo, mid - 1)
    return lo


@pytest.mark.parametrize("n", range(1, 9))
def test_det_route_boundaries_are_the_exact_inequalities(n):
    # 2^64 alone while 4 n^n e^(2n) < 2^128 (twice the Hadamard bound); then
    # float64 while gamma_c n! e^n < 2^61 and e <= 2^53, in exact rationals
    e0 = largest_admitted(lambda e: 4 * n**n * e ** (2 * n) < 2**128, 2**62)
    assert _det_route(n, e0) == ("none", [])
    if n == 1:
        assert e0 == 2**62  # the sampler's widest entries
        return
    assert _det_route(n, e0 + 1)[0] != "none"
    c = n * (n + 1) // 2 - 1
    gamma = c * Fraction(1, 2**53) / (1 - c * Fraction(1, 2**53))
    e1 = largest_admitted(lambda e: gamma * math.factorial(n) * e**n < 2**61, 2**53)
    assert e1 > e0 + 1
    assert _det_route(n, e0 + 1)[0] == _det_route(n, e1)[0] == "float64"
    route, primes = _det_route(n, e1 + 1)
    assert route == "crt" and primes == _crt_primes_for(n, e1 + 1) != []
    if n == 8:
        assert 3000 < e1 < 3500  # the float64 route's reach at dim 8


def exact_level_edges(n):
    """(e, k) for each k in 2..n: e is the largest entry bound at which every
    order-k minor fits int64 by Hadamard's bound, k^k e^(2k) < 2^126."""
    return [(largest_admitted(lambda e: k**k * e ** (2 * k) < 2**126, 2**62), k) for k in range(2, n + 1)]


def sylvester(n):
    """The last n rows and columns of the Sylvester Hadamard matrix of order 8:
    its order-2 and order-4 corners reach Hadamard's bound."""
    h = np.array([[1]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    return h[8 - n :, 8 - n :]


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_dets_at_each_exact_level_edge(n):
    # every minor of order k0 must fit int64, with k0 read off the lanes:
    # at each edge e of a level and at e + 1, on every route that admits e
    rng = np.random.default_rng(n)
    for e0, k in exact_level_edges(n):
        assert montecarlo._exact_level(n, e0) == k and montecarlo._exact_level(n, e0 + 1) == k - 1
        for e in (e0, e0 + 1):
            mats = rng.integers(-e, e, size=(6, n, n), dtype=np.int64, endpoint=True)
            mats = np.concatenate([mats, [e * sylvester(n), -e * sylvester(n), np.full((n, n), e)]])
            mats[-1, 0, 0] = e - 1
            route, primes = _det_route(n, e)
            routes = {route: primes, "crt": _crt_primes_for(n, max(e, 10**6))}
            if route == "none" and _det_route(n, e + 1)[0] == "float64":
                routes["float64"] = []
            want = [det_bareiss(m.tolist()) for m in mats]
            for r, p in routes.items():
                got, wide = exact_dets_list(mats, p, r)
                assert got == want, (n, e, r)
                assert set(wide) == {i for i, d in enumerate(want) if not -(2**63) <= d < 2**63}


def test_exact_dets_across_lane_blocks():
    # the batch draws and expands _DET_BLOCK lanes at a time; lanes on either
    # side of each block edge, wide ones included, must land at their index.
    # m = 1024 rejects no lane, so the stream's counter reaches the end of its
    # last round only if the draw runs to its end
    for dim, m, shift, cnt in (
        (4, 2001, 1000, 2 * _DET_BLOCK + 3),
        (8, 3000, 0, 2 * _DET_BLOCK + 3),
        (3, 2**41 + 1, 2**40, 2 * _DET_BLOCK + 3),
        (4, 1024, 0, 4 * _DET_BLOCK),
    ):
        route, primes = _det_route(dim, max(m - 1 - shift, shift))
        s = RngStream(dim)
        low, wide = montecarlo._stream_dets(s, cnt, dim, m, shift, primes, route)
        whole = RngStream(dim)
        mats = whole.uniform_below(m, cnt * dim * dim).reshape(cnt, dim, dim) - shift
        want_low, want_wide = _exact_dets(mats, primes, route)
        assert s._idx == whole._idx
        assert np.array_equal(low, want_low) and wide == want_wide
        assert route == "none" or len(wide) > cnt // 2
        for i in (0, _DET_BLOCK - 1, _DET_BLOCK, 2 * _DET_BLOCK, cnt - 1):
            assert wide.get(i, int(low[i])) == det_bareiss(mats[i].tolist()), (dim, i)


def test_exact_dets_cross_check_raises_on_mismatch(monkeypatch):
    mats = np.eye(3, dtype=np.int64)[None].repeat(4, axis=0)
    monkeypatch.setattr(montecarlo, "det_bareiss", lambda rows: 2)
    with pytest.raises(AssertionError):
        _exact_dets(mats, [])


@pytest.mark.parametrize("threads", [1, 2])
def test_det_benchmark_counts_are_pinned(threads):
    # the Monte Carlo pins of the benchmark's two det operations
    assert estimate_det_coprime(6, 1000, 200_000, seed=1003, threads=threads).successes == 71642
    assert estimate_det_coprime(3, 10, 200_000, seed=1004, threads=threads).successes == 74664


def det_batch_peak(threads):
    """tracemalloc's peak over one batch of 2^16 dim-6 pairs per thread,
    entries below 1000."""
    tracemalloc.start()
    try:
        estimate_det_coprime(6, 1000, threads * BATCH_SIZE, seed=5, threads=threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_det_batch_memory():
    # each stack goes from draw to determinants one lane block at a time, so
    # a batch holds its two int64 determinant vectors (1 MiB) and one block:
    # measured 4.1 MiB (19.9 MiB when each 9.4 MB stack was drawn whole)
    assert det_batch_peak(1) < 6 * 2**20


def test_det_batch_memory_at_two_threads():
    # two batches at once: measured 8.2 MiB (39.4 MiB with whole stacks)
    assert det_batch_peak(2) < 12 * 2**20


def test_det_trials_cap_scales_with_the_route(monkeypatch):
    batches = []
    monkeypatch.setattr(montecarlo, "_run_batches", lambda *a: batches.append(a) or 0)
    # dim 6 at entries below 1000 (float64 route) keeps the whole cap
    estimate_det_coprime(6, 1000, montecarlo.TRIALS_MAX["det"], seed=0)
    # dim 8 at entries near 2^62 runs 16 CRT primes: about 0.1 ms a trial
    route, primes = _det_route(8, 2**62 - 1)
    cap = int(montecarlo.DET_BUDGET_US / montecarlo._det_trial_us(8, 2**62 - 1, route, len(primes)))
    assert 10**5 < cap < 10**6
    estimate_det_coprime(8, 2**62, cap, seed=0)
    assert len(batches) == 2
    with pytest.raises(montecarlo.ResourceLimitError, match="dim 8"):
        estimate_det_coprime(8, 2**62, cap + 1, seed=0)
    assert len(batches) == 2


def test_det_dim1_matches_pair_density():
    est = estimate_det_coprime(1, 10**6, 100_000, seed=3)
    assert est.ci_low <= 6 / math.pi**2 <= est.ci_high


def test_det_dim3_near_delta3():
    d3 = constants.delta_determinant_constant(3, 1e-8).value
    est = estimate_det_coprime(3, 1000, 200_000, seed=13)
    assert abs(est.estimate - d3) < 0.01


def test_det_thread_invariance_and_reproducibility():
    a = estimate_det_coprime(3, 100, 70_000, seed=2, threads=1)
    b = estimate_det_coprime(3, 100, 70_000, seed=2, threads=4)
    c = estimate_det_coprime(3, 100, 70_000, seed=2, threads=1)
    assert a.successes == b.successes == c.successes


def test_det_symmetric_entries():
    est = estimate_det_coprime(2, 10, 50_000, seed=4, symmetric_entries=True)
    assert est.params["symmetric_entries"] is True
    assert 0 < est.estimate < 1


def test_det_errors():
    with pytest.raises(ValueError):
        estimate_det_coprime(0, 10, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_det_coprime(9, 10, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_det_coprime(2, 1, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_coprime_pair(10, 0, seed=0)
