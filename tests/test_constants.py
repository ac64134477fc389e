import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import oracle
import pytest

from coprime_lab import constants, sieve
from coprime_lab.constants import (
    ConstantValue,
    catalan,
    delta_determinant_constant,
    euler_product_inv_zeta2,
    gaussian_coprime_constant,
    inv_zeta,
    pairwise_triple_constant,
    reference_constant,
    zeta,
)
from coprime_lab.errors import PrecisionError
from coprime_lab.exact import pairwise_coprime_triple_count
from coprime_lab.sieve import primes_up_to

# Printed reference digits below are truncations of the true decimal
# expansions, so each carries one unit of slack in its last printed place.
PRINT6 = 1e-6


def assert_certified(cv: ConstantValue, true_value: float, slack: float = 0.0):
    assert abs(cv.value - true_value) <= cv.abs_error_bound + slack


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta2_closed_form():
    cv = zeta(2, 1e-12)
    assert cv.abs_error_bound <= 1e-12
    assert abs(cv.value - math.pi**2 / 6) <= 1e-12


def test_zeta3_against_direct_summation():
    # independent oracle: direct sum to 1e7 plus the integral tail bracket
    n = np.arange(1, 10**7 + 1, dtype=np.float64)
    s = float(np.sum(1.0 / (n * n * n)))
    lo, hi = 1 / (2 * (10**7 + 1) ** 2), 1 / (2 * 10**14)
    oracle = s + (lo + hi) / 2
    cv = zeta(3, 1e-12)
    assert abs(cv.value - oracle) <= 1e-12 + (hi - lo)
    assert abs(cv.value - 1.2020569031595943) <= 2e-12


def test_zeta_decreasing_toward_one():
    vals = [zeta(k, 1e-12).value for k in range(2, 21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1 for v in vals)
    assert zeta(64, 1e-12).value == pytest.approx(1.0, abs=1e-14)


def test_zeta_certificate_holds():
    # pi^4/90 in floats is itself off by an ulp, so the closed forms are
    # evaluated at 50 digits; the bounds are a few units of 1e-16
    with mp.workdps(50):
        exact = {2: mp.pi**2 / 6, 4: mp.pi**4 / 90, 6: mp.pi**6 / 945}
        for k, true in exact.items():
            for eps in (1e-6, 1e-9, 1e-12, 1e-14, 1e-15):
                cv = zeta(k, eps)
                assert cv.abs_error_bound <= eps
                assert abs(mp.mpf(cv.value) - true) <= cv.abs_error_bound


def test_zeta_errors():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(65)
    # refused only below the certified bound, about 1.9e-16 at k = 2
    with pytest.raises(PrecisionError):
        zeta(2, 1e-17)
    with pytest.raises(PrecisionError):
        inv_zeta(2, 1e-17)


def test_inv_zeta():
    cv = inv_zeta(2, 1e-12)
    assert abs(cv.value - 6 / math.pi**2) <= 1e-12


# ---------------------------------------------------------------------------
# Euler product for 1/zeta(2)
# ---------------------------------------------------------------------------


def test_euler_identity_product_times_series():
    for eps in (1e-6, 1e-9):
        prod = euler_product_inv_zeta2(eps)
        series = zeta(2, eps)
        assert abs(prod.value * series.value - 1.0) <= 4 * eps
        assert prod.abs_error_bound <= eps


def test_euler_product_first_factor_bracket():
    # partial products are nested brackets shrinking onto the limit
    pr = primes_up_to(1000).astype(np.float64)
    partials = np.cumprod(1.0 - 1.0 / (pr * pr))
    assert partials[0] == 0.75
    assert np.all(np.diff(partials) < 0)
    true = 6 / math.pi**2
    assert np.all(partials > true)
    assert 0.6 < true < 0.75


def test_euler_product_closed_form_agreement():
    cv = euler_product_inv_zeta2(1e-9)
    assert abs(cv.value - 6 / math.pi**2) <= 1e-9


def test_euler_product_head_partials_decrease_above_value():
    # the head primes' partial products shrink toward the value, never past it
    cv = euler_product_inv_zeta2(1e-11)
    pr = primes_up_to(cv.params["prime_bound"]).astype(np.float64)
    assert len(pr) == cv.params["primes"]
    partials = np.cumprod(1.0 - 1.0 / (pr * pr))
    assert np.all(np.diff(partials) < 0)
    assert np.all(partials > cv.value - cv.abs_error_bound)


def test_euler_product_floor_is_reachable():
    cv = euler_product_inv_zeta2(1e-11)
    assert cv.abs_error_bound <= 1e-11
    assert abs(cv.value - 6 / math.pi**2) <= cv.abs_error_bound


def test_constants_need_no_primes_past_1e5(monkeypatch):
    # the constants read no sieve table at all: their head primes are their own
    def refuse(limit):
        raise AssertionError(f"asked the sieve for {limit}")

    monkeypatch.setattr(sieve, "primes_up_to", refuse)
    monkeypatch.setattr(sieve, "shared_tables", refuse)
    monkeypatch.setattr(constants, "_tails", None)
    for cv in (
        euler_product_inv_zeta2(1e-11),
        pairwise_triple_constant(1e-8),
        delta_determinant_constant(None, 1e-8),
        delta_determinant_constant(500, 1e-8),
    ):
        assert cv.params["prime_bound"] <= 10**5


def test_product_eps_floors_are_pinned():
    # one floor, 1e-11, for every Euler product
    for product in (
        euler_product_inv_zeta2,
        pairwise_triple_constant,
        lambda eps: delta_determinant_constant(6, eps),
        lambda eps: delta_determinant_constant(None, eps),
    ):
        assert product(1e-11).abs_error_bound <= 1e-11
        with pytest.raises(PrecisionError):
            product(1e-12)


# ---------------------------------------------------------------------------
# Catalan and the Gaussian coprimality constant
# ---------------------------------------------------------------------------


def test_catalan_alternating_bracket():
    # first two partial sums bracket the constant
    cv = catalan(1e-9)
    assert 1 - 1 / 9 <= cv.value <= 1.0


def test_catalan_published_digits():
    cv = catalan(1e-9)
    assert abs(cv.value - 0.915965594) < 1e-9
    assert cv.abs_error_bound <= 1e-9
    assert_certified(cv, 0.915965, slack=PRINT6)


def test_gaussian_constant():
    cv = gaussian_coprime_constant(1e-9)
    assert_certified(cv, 0.663700, slack=PRINT6)
    g = catalan(1e-12).value
    assert cv.value == pytest.approx(6 / (math.pi**2 * g), abs=1e-9)


def test_catalan_errors():
    # refused only below the certified bounds, about 1.0e-16 and 6.6e-16
    with pytest.raises(PrecisionError):
        catalan(1e-17)
    with pytest.raises(PrecisionError):
        gaussian_coprime_constant(1e-16)


# ---------------------------------------------------------------------------
# Q and Delta
# ---------------------------------------------------------------------------


def test_q_published_digits():
    cv = pairwise_triple_constant(1e-6)
    assert abs(cv.value - 0.286747) < 1e-6
    assert cv.abs_error_bound <= 1e-6
    assert_certified(cv, 0.286747, slack=PRINT6)


def test_q_partial_product_upper_bracket():
    # the p = 2 factor alone gives 32/pi^4, an upper bracket
    cv = pairwise_triple_constant(1e-6)
    first = 36 / math.pi**4 * (1 - 1 / 9)
    assert cv.value < first == pytest.approx(0.3285, abs=2e-4)


def test_q_matches_exact_triple_count():
    cv = pairwise_triple_constant(1e-6)
    r = pairwise_coprime_triple_count(1000)
    assert abs(cv.value - r.value) < 0.01


def test_delta_one_is_inverse_zeta2_exactly():
    cv = delta_determinant_constant(1, 1e-6)
    assert abs(cv.value - 6 / math.pi**2) <= 1e-12
    assert cv.method == "closed_form"


def test_delta_limit_published_digits():
    cv = delta_determinant_constant(None, 1e-6)
    assert abs(cv.value - 0.353236) < 5e-6
    assert_certified(cv, 0.353236, slack=PRINT6)


def test_delta_decreasing_in_dimension():
    limit = delta_determinant_constant(None, 1e-8).value
    vals = [delta_determinant_constant(n, 1e-8).value for n in range(1, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > limit for v in vals)
    # convergence is ~0.2 * 2^-n; dimension 9 is the first within 1e-3
    assert vals[8] - limit < 1e-3
    assert vals[7] - limit > 1e-3


def test_delta_errors():
    with pytest.raises(ValueError):
        delta_determinant_constant(0)
    with pytest.raises(ValueError):
        delta_determinant_constant(501)
    with pytest.raises(PrecisionError):
        delta_determinant_constant(None, 1e-12)
    # the closed form at dimension 1 refuses only an eps below its own bound
    assert delta_determinant_constant(1, 1e-12).method == "closed_form"
    with pytest.raises(PrecisionError):
        delta_determinant_constant(1, 1e-16)


# ---------------------------------------------------------------------------
# mpmath oracle: every Euler product against its certificate
# ---------------------------------------------------------------------------

def test_oracle_matches_closed_forms():
    with mp.workdps(oracle.DPS):
        assert abs(oracle.euler_product("inv_zeta2") - 6 / mp.pi**2) < mp.mpf(10) ** -48
        assert abs(oracle.euler_product(("delta", 1)) - 6 / mp.pi**2) < mp.mpf(10) ** -48
        assert abs(oracle.euler_product("q3") - mp.mpf("0.28674742843447873410789271279")) < mp.mpf(10) ** -28


ORACLE_CASES = [("inv_zeta2", eps) for eps in (1e-6, 1e-9)] + [
    (name, eps)
    for name in ("q3", ("delta", 2), ("delta", 3), ("delta", 6), ("delta", 8), ("delta", None))
    for eps in (1e-6, 1e-8, 1e-11)
]


def _case_id(v):
    if isinstance(v, tuple):
        return f"delta{v[1] or '_inf'}"
    return str(v)


@pytest.mark.parametrize("name,eps", ORACLE_CASES, ids=_case_id)
def test_certificate_against_mpmath_oracle(name, eps):
    if name == "inv_zeta2":
        cv = euler_product_inv_zeta2(eps)
    elif name == "q3":
        cv = pairwise_triple_constant(eps)
    else:
        cv = delta_determinant_constant(name[1], eps)
    assert cv.abs_error_bound <= eps
    with mp.workdps(oracle.DPS):
        assert abs(mp.mpf(cv.value) - oracle.euler_product(name)) <= cv.abs_error_bound


# ---------------------------------------------------------------------------
# 50-digit oracle at every eps, against the bounds of the replaced code
# ---------------------------------------------------------------------------

#: Bounds of the code that CRVZ and fsum replaced (Euler-Maclaurin zeta, a
#: plain alternating series for G, numpy pairwise sums), which no bound may
#: exceed. zeta and inv_zeta: the least over k = 2..64, the same at every eps.
#: That code refused eps below 1e-14 (zeta), 1e-12 (G) and 2e-12 (gaussian).
OLD_BOUNDS = {
    "zeta": 8.8832297998979e-16,
    "inv_zeta": 1.1103675849148221e-15,
    "catalan": {
        1e-6: 8.950556253705702e-07, 1e-7: 8.980232849781712e-08, 1e-8: 8.996461175446159e-09,
        1e-9: 8.998048570754121e-10, 1e-10: 8.999656724499763e-11,
        1e-11: 9.003037346271928e-12, 1e-12: 9.035051040651804e-13,
    },
    "gaussian": {
        1e-6: 3.250678332053869e-07, 1e-7: 3.256578149684642e-08, 1e-8: 3.2589670363239606e-09,
        1e-9: 3.2603352750779577e-10, 1e-10: 3.260778519114191e-11,
        1e-11: 3.2635608514310212e-12, 2e-12: 6.552615252023085e-13,
    },
    # the products' bounds did not depend on eps
    "inv_zeta2": 1.9444526243970554e-14,
    "q3": 5.765648534948939e-14,
    ("delta", 2): 3.2902401148545507e-14,
    ("delta", 3): 3.5329189479326565e-14,
    ("delta", 6): 4.452517167694754e-14,
    ("delta", 8): 4.530172723018691e-14,
    ("delta", None): 5.845513511338589e-14,
}


def eps_grid(floor):
    """1e-6, 1e-7, ... down to the floor, and the floor itself."""
    grid = [float(f"1e-{e}") for e in range(6, 16) if float(f"1e-{e}") >= floor]
    return grid if grid[-1] == floor else grid + [floor]


def assert_oracle(cv, true, eps, old):
    assert cv.abs_error_bound <= min(eps, old)
    with mp.workdps(oracle.DPS):
        assert abs(mp.mpf(cv.value) - true) <= cv.abs_error_bound


def test_zeta_and_inv_zeta_against_oracle_at_every_eps():
    for k in range(2, 65):
        true = oracle.zeta(k)
        with mp.workdps(oracle.DPS):
            inverse = 1 / true
        for eps in eps_grid(1e-15):
            assert_oracle(zeta(k, eps), true, eps, OLD_BOUNDS["zeta"])
            assert_oracle(inv_zeta(k, eps), inverse, eps, OLD_BOUNDS["inv_zeta"])


def test_catalan_and_gaussian_against_oracle_at_every_eps():
    # below the old floors only eps bounds the bound
    assert set(OLD_BOUNDS["catalan"]) <= set(eps_grid(1e-15))
    for eps in eps_grid(1e-15):
        old = OLD_BOUNDS["catalan"].get(eps, math.inf)
        assert_oracle(catalan(eps), oracle.catalan(), eps, old)
    for eps in sorted({*eps_grid(1e-15), *OLD_BOUNDS["gaussian"]}, reverse=True):
        old = OLD_BOUNDS["gaussian"].get(eps, math.inf)
        assert_oracle(gaussian_coprime_constant(eps), oracle.gaussian(), eps, old)


@pytest.mark.parametrize("name", ["inv_zeta2", "q3", ("delta", 2), ("delta", 3), ("delta", 6),
                                  ("delta", 8), ("delta", None)], ids=_case_id)
def test_euler_product_against_oracle_at_every_eps(name):
    for eps in eps_grid(constants._PRODUCT_EPS_FLOOR):
        if name == "inv_zeta2":
            cv = euler_product_inv_zeta2(eps)
        elif name == "q3":
            cv = pairwise_triple_constant(eps)
        else:
            cv = delta_determinant_constant(name[1], eps)
        assert_oracle(cv, oracle.euler_product(name), eps, OLD_BOUNDS[name])


def test_crvz_weights_are_algorithm_1s():
    n = constants._CRVZ_TERMS
    d = constants._CRVZ_D
    assert d == 1180872205318713601
    with mp.workdps(50):
        assert d == mp.nint(((3 + mp.sqrt(8)) ** n + (3 - mp.sqrt(8)) ** n) / 2)  # T_n(3)
    # CRVZ Algorithm 1 in exact rationals
    b, c, weights = Fraction(-1), Fraction(-d), []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = (k + n) * (k - n) * b / ((k + Fraction(1, 2)) * (k + 1))
    assert list(constants._CRVZ_WEIGHTS) == weights
    assert 16.9 < sum(abs(w) for w in weights) / d < 17


def test_log_zeta_table_is_summed_once_per_process(monkeypatch):
    calls = []
    summed = constants._sum_prime_zeta_tails
    monkeypatch.setattr(constants, "_tails", None)
    monkeypatch.setattr(constants, "_sum_prime_zeta_tails", lambda: calls.append(1) or summed())
    first = [euler_product_inv_zeta2(1e-9), pairwise_triple_constant(1e-9)]
    again = [euler_product_inv_zeta2(1e-9), pairwise_triple_constant(1e-9)]
    assert calls == [1] and first == again


# ---------------------------------------------------------------------------
# reference routing
# ---------------------------------------------------------------------------


def test_reference_routing():
    assert reference_constant("odd_pair").value == pytest.approx(0.810569, abs=1e-6)
    assert reference_constant("prime_density").value == 0.0
    assert reference_constant("pair").value == pytest.approx(0.607927, abs=1e-6)
    assert reference_constant("gaussian").value == pytest.approx(0.663700, abs=1e-6)
    assert reference_constant("triple3").value == pytest.approx(0.286747, abs=1e-6)
    assert reference_constant("det").value == pytest.approx(0.353236, abs=1e-5)
    assert reference_constant("det", dim=1).value == pytest.approx(6 / math.pi**2, abs=1e-12)
    assert reference_constant("ktuple", k=4).value == pytest.approx(90 / math.pi**4, abs=1e-9)
    assert reference_constant("kfree", j=2).value == pytest.approx(6 / math.pi**2, abs=1e-9)
    assert reference_constant("gcd_eq", t=3).value == pytest.approx(6 / (9 * math.pi**2), abs=1e-12)


def test_reference_errors():
    with pytest.raises(ValueError):
        reference_constant("mystery")
    with pytest.raises(ValueError):
        reference_constant("ktuple")
    with pytest.raises(ValueError):
        reference_constant("gcd_eq")


def test_published_digit_brackets():
    """The five headline constants bracket their printed decimals."""
    cases = [
        (euler_product_inv_zeta2(1e-6), 0.607927),
        (catalan(1e-6), 0.915965),
        (gaussian_coprime_constant(1e-6), 0.663700),
        (pairwise_triple_constant(1e-6), 0.286747),
        (delta_determinant_constant(None, 1e-6), 0.353236),
    ]
    for cv, printed in cases:
        assert_certified(cv, printed, slack=PRINT6)
        assert cv.abs_error_bound <= 1e-6


def test_products_on_a_cold_cache_from_two_threads(monkeypatch):
    products = (
        lambda: euler_product_inv_zeta2(1e-9),
        lambda: pairwise_triple_constant(1e-9),
        lambda: delta_determinant_constant(None, 1e-9),
    )
    serial = [f() for f in products]
    sums = []
    summed = constants._sum_prime_zeta_tails
    monkeypatch.setattr(constants, "_tails", None)
    monkeypatch.setattr(constants, "_sum_prime_zeta_tails", lambda: sums.append(1) or summed())
    start = threading.Barrier(2)

    def run(order):
        start.wait(timeout=60)
        return [products[i]() for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            forward = pool.submit(run, (0, 1, 2))
            backward = pool.submit(run, (2, 1, 0))
            assert forward.result(timeout=60) == serial
            assert backward.result(timeout=60) == serial[::-1]
    finally:
        sys.setswitchinterval(interval)
    assert sums == [1]
