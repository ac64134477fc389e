import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
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
    _DET_CHUNK,
    _exact_dets,
    _crt_primes_for,
    _is_prime_u64,
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
    got += [s.next_word() for _ in range(3)]
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


def test_gaussian_mask_matches_scalar_gcd():
    pts = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    zs, ws = [], []
    expect = []
    for z in pts:
        for w in pts:
            zs.append(z)
            ws.append(w)
            expect.append(is_coprime(GaussianInt(*z), GaussianInt(*w)))
    zr = np.array([z[0] for z in zs])
    zi = np.array([z[1] for z in zs])
    wr = np.array([w[0] for w in ws])
    wi = np.array([w[1] for w in ws])
    got = gaussian_coprime_mask(zr, zi, wr, wi)
    assert got.tolist() == expect


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


def exact_dets_list(mats, primes):
    """_exact_dets as one Python int per lane, after checking its output shape
    and that it left its input alone."""
    before = mats.copy()
    low, wide = _exact_dets(mats, primes)
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


def test_crt_prime_pool_is_prime_and_sized():
    assert all(_is_prime_u64(p) for p in _CRT_PRIMES)
    assert all(p < 2**28 for p in _CRT_PRIMES)
    assert list(_CRT_PRIMES) == sorted(set(_CRT_PRIMES), reverse=True)
    assert all(_is_prime_u64(p) for p in _crt_primes_for(8, 10**6 - 1))
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
    got, wide = exact_dets_list(mats, _crt_primes_for(n, emax))
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


def test_exact_dets_across_lane_blocks():
    # the kernel runs in blocks of _DET_CHUNK lanes; lanes on either side of
    # each block edge must come out right
    rng = np.random.default_rng(5)
    mats = rng.integers(-1000, 1000, size=(2 * _DET_CHUNK + 3, 4, 4), dtype=np.int64)
    got, _ = exact_dets_list(mats, _crt_primes_for(4, 1000))
    for i in (0, _DET_CHUNK - 1, _DET_CHUNK, 2 * _DET_CHUNK, len(mats) - 1):
        assert got[i] == det_bareiss(mats[i].tolist()), i


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
