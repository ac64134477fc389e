import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from coprime_lab import constants
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
    exact = {2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945}
    for k, true in exact.items():
        for eps in (1e-6, 1e-9, 1e-12, 1e-14):
            cv = zeta(k, eps)
            assert cv.abs_error_bound <= eps
            assert_certified(cv, true)


def test_zeta_errors():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(65)
    with pytest.raises(PrecisionError):
        zeta(2, 1e-15)


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
    def capped(limit):
        if limit > 10**5:
            raise AssertionError(f"asked for primes up to {limit}")
        return primes_up_to(limit)

    monkeypatch.setattr(constants, "primes_up_to", capped)
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
    with pytest.raises(PrecisionError):
        catalan(1e-13)


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

# The oracle multiplies the factors of the primes p <= ORACLE_PRIMES in mpmath
# and sums the rest as sum_s c_s (P(s) - sum_{p <= ORACLE_PRIMES} p^-s), with
# P = mpmath.primezeta and -log F(x) = sum_s c_s x^s expanded here as
# sum_m h^m / m for F = 1 - h. The coefficients of these factors grow at most
# like 4^s, so the series terms past ORACLE_DEGREE are below (4/100)^40.
ORACLE_PRIMES = 100
ORACLE_DEGREE = 40


def _series_mul(a, b):
    out = [Fraction(0)] * (ORACLE_DEGREE + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: ORACLE_DEGREE + 1 - i]):
                out[i + j] += x * y
    return out


def _neg_log_coeffs(f):
    h = [Fraction(0)] + [-Fraction(c) for c in f[1:]]
    h += [Fraction(0)] * (ORACLE_DEGREE + 1 - len(h))
    out = [Fraction(0)] * (ORACLE_DEGREE + 1)
    power = [Fraction(1)] + [Fraction(0)] * ORACLE_DEGREE
    for m in range(1, ORACLE_DEGREE // 2 + 1):  # h = O(x^2)
        power = _series_mul(power, h)
        out = [o + c / m for o, c in zip(out, power)]
    return out


def _delta_factor_series(dim):
    inner = [Fraction(1)]
    for k in range(1, min(dim or ORACLE_DEGREE, ORACLE_DEGREE) + 1):
        inner = _series_mul(inner, [1] + [0] * (k - 1) + [-1])
    gap = [-c for c in inner]
    gap[0] += 1
    f = [-c for c in _series_mul(gap, gap)]
    f[0] += 1
    return f


def _delta_factor(dim, p):
    inner = mp.mpf(1)
    for k in range(1, (dim or 120) + 1):  # 2^-120 is below 30 digits
        inner *= 1 - p**-k
    return 1 - (1 - inner) ** 2


@lru_cache(maxsize=None)
def _oracle(name):
    """The constant to 30 digits: 'inv_zeta2', 'q3' or ('delta', dim)."""
    if name == "inv_zeta2":
        f, factor = [1, 0, -1], lambda p: 1 - p**-2
    elif name == "q3":  # Q = prod_p (1 - 1/p)^2 (1 + 2/p)
        f, factor = [1, 0, -3, 2], lambda p: (1 - 1 / p) ** 2 * (1 + 2 / p)
    else:
        dim = name[1]
        f, factor = _delta_factor_series(dim), lambda p: _delta_factor(dim, p)
    primes = [int(p) for p in primes_up_to(ORACLE_PRIMES)]
    c = _neg_log_coeffs(f)
    with mp.workdps(30):
        head = mp.fprod(factor(mp.mpf(p)) for p in primes)
        tail = mp.fsum(
            mp.mpf(c[s].numerator) / c[s].denominator
            * (mp.primezeta(s) - mp.fsum(mp.mpf(p) ** -s for p in primes))
            for s in range(2, ORACLE_DEGREE + 1)
            if c[s]
        )
        return head * mp.exp(-tail)


def test_oracle_matches_closed_forms():
    with mp.workdps(30):
        assert abs(_oracle("inv_zeta2") - 6 / mp.pi**2) < mp.mpf(10) ** -28
        assert abs(_oracle(("delta", 1)) - 6 / mp.pi**2) < mp.mpf(10) ** -28
        assert abs(_oracle("q3") - mp.mpf("0.28674742843447873410789271279")) < mp.mpf(10) ** -28


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
    with mp.workdps(30):
        assert abs(mp.mpf(cv.value) - _oracle(name)) <= cv.abs_error_bound


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
