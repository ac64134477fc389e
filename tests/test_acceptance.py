"""End-to-end acceptance checks, one per criterion, with pinned tolerances.

Each test prints one PASS line when it succeeds (run with -s or -rA to see
them). Runtime limits are wall-clock on the executing machine.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from coprime_lab import constants, exact, montecarlo
from coprime_lab.gaussian import GaussianInt, is_coprime
from coprime_lab.limits import FunctionSpec


def _cli_json(args, timeout=120.0):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "coprime_lab.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return [json.loads(ln) for ln in proc.stdout.splitlines() if ln], elapsed


def test_criterion_01_pair_density_cli():
    recs, elapsed = _cli_json(["exact", "pair", "--n", "100000"])
    (rec,) = recs
    assert rec["numerator"] == exact.totient_sum(10**5) - 1
    assert abs(rec["value"] - 0.6079271019) < 5e-4
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 pair density at 1e5 (gap {abs(rec['value'] - 0.6079271019):.2e}, {elapsed:.2f}s): PASS")


def test_criterion_02_euler_identity():
    t0 = time.perf_counter()
    prod = constants.euler_product_inv_zeta2(1e-9)
    series = constants.zeta(2, 1e-9)
    elapsed = time.perf_counter() - t0
    diff = abs(prod.value - 1.0 / series.value)
    assert diff < 4e-9
    assert abs(prod.value * series.value - 1.0) <= 4e-9
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 euler identity (routes differ by {diff:.2e}, {elapsed:.2f}s): PASS")


def test_criterion_03_stratification_all_n_up_to_500():
    t0 = time.perf_counter()
    for n in range(2, 501):
        total = 0
        for t in range(1, n + 1):
            r = exact.gcd_equal_count(n, t)
            total += r.numerator
            m = n // t
            expect = exact.coprime_pair_count(m).numerator if m >= 2 else 0
            assert r.numerator == expect, (n, t)
        assert total == n * (n - 1) // 2, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3 gcd stratification n <= 500 ({elapsed:.2f}s): PASS")


def test_criterion_04_mobius_totient_bridge():
    for n in range(1, 3001):
        assert exact.coprime_ordered_count_mobius(n) == 2 * exact.totient_sum(n) - 1, n
    print("ACCEPTANCE 4 mobius/totient bridge n <= 3000: PASS")


def test_criterion_05_visible_disk():
    recs, _ = _cli_json(["exact", "visible", "--radius", "5"])
    (rec,) = recs
    assert rec["numerator"] == 48 and rec["denominator"] == 80
    t0 = time.perf_counter()
    r = exact.visible_points_in_disk(1000)
    elapsed = time.perf_counter() - t0
    assert abs(r.value - 0.607927) < 3e-3
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 5 visible points 48/80 and radius 1000 ({elapsed:.2f}s): PASS")


def test_criterion_06_odd_pairs():
    r = exact.odd_coprime_pair_count(10**5)
    gap = abs(r.value - 0.8105694691)
    assert gap < 1e-3
    print(f"ACCEPTANCE 6 odd pairs at 1e5 (gap {gap:.2e}): PASS")


def test_criterion_07_ktuples():
    ref = constants.zeta(3, 1e-12)
    r = exact.ktuple_coprime_count(10**4, 3)
    gap = abs(r.value - 1.0 / ref.value)
    assert abs(1.0 / ref.value - 0.8319073726) < 1e-9
    assert gap < 1e-3
    # brute-force equality at n = 200: enumerate all of [1,200]^3
    n = 200
    arr = np.arange(1, n + 1, dtype=np.int64)
    g2 = np.gcd.outer(arr, arr)
    vals, cnts = np.unique(g2, return_counts=True)
    brute = sum(
        int(c) * int(np.count_nonzero(np.gcd(g, arr) == 1)) for g, c in zip(vals, cnts)
    )
    assert exact.ktuple_coprime_count(n, 3).numerator == brute
    print(f"ACCEPTANCE 7 k-tuples k=3 (gap {gap:.2e}, brute at 200 equal): PASS")


def test_criterion_08_pairwise_triples():
    q = constants.pairwise_triple_constant(1e-6)
    assert abs(q.value - 0.286747) < 1e-6
    r = exact.pairwise_coprime_triple_count(1000)
    assert abs(r.value - q.value) < 0.01
    covered = 0
    for seed in range(1, 11):
        est = montecarlo.estimate_pairwise_triple(10**6, 10**7, seed=seed)
        covered += est.ci_low <= q.value <= est.ci_high
    assert covered >= 9, f"only {covered}/10 intervals covered Q"
    print(f"ACCEPTANCE 8 pairwise triples (analytic, exact, MC {covered}/10): PASS")


def test_criterion_09_squarefree_and_kfree():
    assert exact.squarefree_count(100).numerator == 61
    g2 = abs(exact.squarefree_count(10**6).value - 0.607927)
    assert g2 < 1e-3
    g3 = abs(exact.kfree_count(10**6, 3).value - constants.inv_zeta(3, 1e-12).value)
    assert g3 < 1e-3
    print(f"ACCEPTANCE 9 squarefree/cubefree (gaps {g2:.2e}, {g3:.2e}): PASS")


def test_criterion_10_gaussian_integers():
    g = constants.catalan(1e-9)
    assert abs(g.value - 0.915965594) <= 1e-9
    est = montecarlo.estimate_gaussian_coprime(1000, 10**6, seed=2)
    gap = abs(est.estimate - 0.663700)
    assert gap < 0.01
    pts = [GaussianInt(a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)]
    target = sum(1 for z in pts for w in pts if is_coprime(z, w)) / len(pts) ** 2
    small = montecarlo.estimate_gaussian_coprime(5, 10**6, seed=6)
    assert small.ci_low <= target <= small.ci_high
    print(f"ACCEPTANCE 10 gaussian (catalan, MC gap {gap:.3f}, B=5 exhaustive in CI): PASS")


def test_criterion_11_determinants():
    d_inf = constants.delta_determinant_constant(None, 1e-6)
    assert abs(d_inf.value - 0.353236) < 5e-6
    d1 = constants.delta_determinant_constant(1, 1e-6)
    assert abs(d1.value - 6 / math.pi**2) <= 1e-12
    t0 = time.perf_counter()
    est = montecarlo.estimate_det_coprime(6, 1000, 10**6, seed=1)
    elapsed = time.perf_counter() - t0
    gap = abs(est.estimate - 0.353236)
    assert gap < 0.01
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 11 determinants (MC gap {gap:.4f}, {elapsed:.0f}s): PASS")


def test_criterion_12_fgcd_sqrt2():
    t0 = time.perf_counter()
    r = exact.f_gcd_density(10**6, FunctionSpec.sqrt2_times_n())
    elapsed = time.perf_counter() - t0
    gap = abs(r.value - 0.607927)
    assert gap < 5e-3
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 12a fgcd sqrt2*n at 1e6 (gap {gap:.2e}, {elapsed:.2f}s): PASS")


def test_criterion_12_fgcd_pow15():
    """f(n) = n^1.5: the exact count at N = 1e6 is right, fast, and converging to 6/pi^2.

    The paper states only the limit 6/pi^2 for n^c and gives no rate, so a
    fixed tolerance at one N is not a consequence of it. The signed gap
    density(N) - 6/pi^2 is negative and shrinks like N^(-1/4):

        N      gap        gap * N^(1/4)
        1e4    -0.01703   -0.170
        1e5    -0.01019   -0.181
        1e6    -0.00551   -0.174
        2e6    -0.00476   -0.179
        4e6    -0.00405   -0.181

    The slow term comes from m near a perfect square: for m = k^2 + j with
    |j| up to about 2*sqrt(k), floor(m^(3/2)) is close to k^3 + 3jk/2 and
    is structured. Those m number about N^(3/4), and only about 54% of
    them are coprime to their floor; the other m match 6/pi^2 to within
    2.4e-4 at 1e6. The rate is measured plus heuristic, not proved.

    A bound of 5e-3 at N = 1e6 therefore cannot hold: the true count is
    602415/10^6, a gap of 0.005512, and the gap first drops below 5e-3
    near N = 2e6. Instead the count is pinned to a pure-integer oracle,
    gcd(m, isqrt(m^3)), and the gap is required to shrink at the N^(-1/4)
    rate with a constant of at most 0.25 (about 40% above the measured
    0.17-0.18). A wrong limit (8/pi^2, 1/zeta(3)) gives a scaled gap
    above 1, and a wrong floor changes the count.
    """
    t0 = time.perf_counter()
    r = exact.f_gcd_density(10**6, FunctionSpec.n_pow_c("1.5"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

    # independent integer oracle: floor(m^1.5) = isqrt(m^3), counted at each checkpoint
    checkpoints = (10**4, 10**5, 10**6)
    oracle = {}
    count = 0
    for m in range(1, 10**6 + 1):
        if math.gcd(m, math.isqrt(m**3)) == 1:
            count += 1
        if m in checkpoints:
            oracle[m] = count
    assert (r.numerator, r.denominator) == (oracle[10**6], 10**6), (
        f"exact count {r.numerator}/{r.denominator} != oracle {oracle[10**6]}"
    )

    limit = constants.reference_constant("fgcd").value
    gaps = []
    for n in checkpoints:
        rn = r if n == 10**6 else exact.f_gcd_density(n, FunctionSpec.n_pow_c("1.5"))
        assert rn.numerator == oracle[n], (n, rn.numerator, oracle[n])
        gap = abs(rn.value - limit)
        scaled = gap * n**0.25
        assert scaled <= 0.25, f"|gap| * N^(1/4) = {scaled:.3f} at N = {n}"
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2], f"gap not shrinking: {gaps}"
    print(
        f"ACCEPTANCE 12b fgcd n^1.5 at 1e6 (count {r.numerator} = oracle, "
        f"gap {gaps[-1]:.2e}, {elapsed:.2f}s): PASS"
    )


def test_criterion_13_prime_density():
    assert exact.prime_density(10**6).numerator == 78498
    dens = [exact.prime_density(10**e).value for e in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    print("ACCEPTANCE 13 prime density (pi(1e6) = 78498, strictly decreasing): PASS")


def test_criterion_14_reproducibility_across_threads():
    runs = {}
    for threads in (1, 8):
        runs[threads] = (
            montecarlo.estimate_coprime_pair(10**9, 10**6, seed=77, threads=threads).successes,
            montecarlo.estimate_pairwise_triple(10**6, 3 * 10**5, seed=77, threads=threads).successes,
            montecarlo.estimate_gaussian_coprime(1000, 2 * 10**5, seed=77, threads=threads).successes,
            montecarlo.estimate_det_coprime(4, 1000, 10**5, seed=77, threads=threads).successes,
        )
    assert runs[1] == runs[8]
    print(f"ACCEPTANCE 14 thread-count invariance (successes {runs[1]}): PASS")
