"""Limiting constants with certified absolute-error bounds, in pure Python.

Each function returns a :class:`ConstantValue` whose ``abs_error_bound`` is
rigorous, so the true constant always lies in ``value +- abs_error_bound``.
zeta(k) and Catalan's G are alternating moment sums, accelerated in
fixed-point integers by Algorithm 1 of Cohen, Rodriguez Villegas & Zagier
(see :func:`_crvz_sum` for the bound) and rounded once. The Euler products
multiply the primes up to 1000 factor by factor and take the rest through
the prime zeta function, with analytic tail bounds; every sum of floats is
a ``math.fsum``, which rounds once. The module loads neither numpy nor the
sieve: its primes and Möbius values come from a few lines below.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionError

#: Euler products multiply the factors of the primes up to this bound one by
#: one and take the primes past it through the prime zeta function.
_HEAD_PRIME_BOUND = 1000

#: Degree through which -log F(x) = sum_s c_s x^s is expanded exactly, for
#: an Euler factor F_p = F(1/p); past it |c_s| <= 4^s bounds the series.
_SERIES_DEGREE = 16

#: Smallest eps an Euler product accepts. Every bound it certifies (6/pi^2,
#: Q, and Delta at each dimension 2-500 and in the limit) is at most 2.0e-14.
_PRODUCT_EPS_FLOOR = 1e-11

#: Largest argument of the certified zeta.
_ZETA_MAX = 64

#: Terms of each accelerated alternating sum, and the fixed-point bits of
#: its moments.
_CRVZ_TERMS = 24
_FIX = 128

_U = 2.0**-53


@dataclass(frozen=True)
class ConstantValue:
    """A computed constant: true value lies in value +- abs_error_bound."""

    value: float
    abs_error_bound: float
    method: str
    params: dict


def _crvz_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """d = T_n(3), the Chebyshev polynomial at 3, and the weights c_0..c_{n-1}.

    Algorithm 1 of CRVZ: b_0 = -1, c_{-1} = -d, c_j = b_j - c_{j-1} and
    b_{j+1} = b_j (j + n)(j - n) / ((j + 1/2)(j + 1)). Every b_j and c_j is
    an integer, so each division here is exact.
    """
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, weights = -1, -d, []
    for j in range(n):
        c = b - c
        weights.append(c)
        b = b * 2 * (j + n) * (j - n) // ((2 * j + 1) * (j + 1))
    return d, tuple(weights)


#: d = T_24(3) = 1180872205318713601; sum |c_j| / d = 16.97.
_CRVZ_D, _CRVZ_WEIGHTS = _crvz_weights(_CRVZ_TERMS)


def _crvz_sum(moment) -> int:
    """sum_j c_j floor(2^128 / moment(j)), close to 2^128 d sum_j (-1)^j / moment(j).

    When a_j = 1/moment(j) is the integral of x^j over a positive measure on
    [0, 1], CRVZ Algorithm 1 (Cohen, Rodriguez Villegas & Zagier, "Convergence
    acceleration of alternating series", Experimental Math. 9, 2000; the
    scheme of Borwein's zeta algorithm) gives |S - sum_j c_j a_j / d| <=
    2S/(3 + sqrt 8)^n < 1.0000001 S/d, so 2S/d, 1.7e-18 relative, bounds the
    truncation and leaves room for the rounding of any bound built on it.
    Flooring each moment moves the sum by less than sum |c_j| < 17d, that is
    by 17 units of 2^-128 once divided by 2^128 d.
    """
    one = 1 << _FIX
    return sum(c * (one // moment(j)) for j, c in enumerate(_CRVZ_WEIGHTS))


def _zeta_ratio(k: int) -> tuple[int, int]:
    """(num, den) with num/den within 2 zeta(k)/d + 2^-122 of zeta(k).

    zeta(k) = eta(k) 2^(k-1) / (2^(k-1) - 1) with the CRVZ sum eta(k) =
    sum_j (-1)^j/(j+1)^k (the measure is (-log x)^(k-1)/(k-1)! dx); the
    factor is at most 2, so 17 units of 2^-128 grow to at most 2^-122.
    """
    return _crvz_sum(lambda j: (j + 1) ** k), _CRVZ_D * ((1 << _FIX) - (1 << (_FIX + 1 - k)))


def _head_primes(limit: int) -> tuple[int, ...]:
    """The primes <= limit, by a sieve of Eratosthenes on a bytearray."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(p for p, prime in enumerate(flags) if prime)


_HEAD_PRIMES = _head_primes(_HEAD_PRIME_BOUND)


def _mobius(k: int) -> int:
    """mu(k) for 1 <= k <= 10^6, by trial division over the head primes."""
    mu = 1
    for p in _HEAD_PRIMES:
        if p * p > k:
            break
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
    return -mu if k > 1 else mu


def _refuse_above(bound: float, eps: float) -> None:
    """Refuse an eps that the certified bound does not meet."""
    if bound > eps:
        raise PrecisionError(f"certified bound {bound:.2e} exceeds requested {eps:.2e}")


def _sum_bound(abs_sum: float) -> float:
    """Error of a math.fsum over terms each within 4u of its exact value.

    fsum rounds once, so the sum is off by at most 5u sum |term|.
    """
    return 5 * _U * abs_sum


def _neg_log_series(f: list) -> list:
    """c_0..c_S of -log f(x) = sum_s c_s x^s for integer coefficients f, f_0 = 1.

    From f (-log f)' = -f', the integers e_n = n c_n satisfy Newton's
    identities e_n = -n f_n - sum_{0<j<n} f_j e_{n-j}.
    """
    f = list(f) + [0] * (_SERIES_DEGREE + 1 - len(f))
    e = [0] * (_SERIES_DEGREE + 1)
    for n in range(1, _SERIES_DEGREE + 1):
        e[n] = -n * f[n] - sum(f[j] * e[n - j] for j in range(1, n))
    return [Fraction(0)] + [Fraction(e[n], n) for n in range(1, _SERIES_DEGREE + 1)]


def _sum_prime_zeta_tails() -> tuple:
    """(t_s, e_s) for s = 0..S: sum_{p>P} p^-s lies in t_s +- e_s for s >= 2.

    The tail is P(s) - sum_{p<=P} p^-s, with the prime zeta function P(s) =
    sum_k mu(k)/k log zeta(ks), or 0 +- P^(1-s)/(s-1) where that is tighter.
    """
    log_zeta, log_zeta_err = [0.0, 0.0], [0.0, 0.0]  # index m
    for m in range(2, _ZETA_MAX + 1):
        num, den = _zeta_ratio(m)
        x = (num - den) / den
        # num/den is within 4/d + 2^-122 of zeta(m) < 2 and x within u x of
        # num/den - 1; log1p is 1-Lipschitz on [0, inf) and rounds within
        # 2u log1p(x) <= 2u x
        log_zeta.append(math.log1p(x))
        log_zeta_err.append(3 * _U * x + 4 / _CRVZ_D + 2.0**-122)
    tails = [(0.0, 0.0)] * 2
    for s in range(2, _SERIES_DEGREE + 1):
        ks = range(1, _ZETA_MAX // s + 1)
        terms = [_mobius(k) * log_zeta[k * s] / k for k in ks]
        terms += [-(p ** -float(s)) for p in _HEAD_PRIMES]
        diff = math.fsum(terms)
        # the dropped k have ks > 64, where log zeta(m) <= zeta(m) - 1 <=
        # 2^-m (1 + 2/(m-1)) <= 2^(1-m), so together they add at most 2^-63
        err = math.fsum(log_zeta_err[k * s] / k for k in ks) + 2.0**-63
        err += _sum_bound(math.fsum(map(abs, terms)))
        trunc = _HEAD_PRIME_BOUND ** (1.0 - s) / (s - 1)
        tails.append((diff, err) if err < trunc else (0.0, trunc))
    return tuple(tails)


_tails: tuple | None = None
_tails_lock = threading.Lock()


def _prime_zeta_tails() -> tuple:
    """The tails of :func:`_sum_prime_zeta_tails`, summed once per process.

    They do not depend on the product, so every Euler product reads the same
    table. Thread-safe: callers that arrive together wait for one summation.
    """
    global _tails
    with _tails_lock:
        if _tails is None:
            _tails = _sum_prime_zeta_tails()
        return _tails


def _euler_product(
    log_head: list, coeffs: list, eps: float,
    lead: float = 1.0, log_head_err: float = 0.0, **params,
) -> ConstantValue:
    """lead * prod_p F_p, certified to eps, with -log F_p = sum_{s>=2} c_s p^-s.

    log_head holds log F_p for the primes p <= P = _HEAD_PRIME_BOUND, each
    within 4u or within log_head_err in total beyond that; coeffs holds
    c_0..c_S exactly (c_0 = c_1 = 0) and |c_s| <= 4^s for all s. The primes
    past P add sum_s c_s sum_{p>P} p^-s, taken from :func:`_prime_zeta_tails`.
    """
    if eps < _PRODUCT_EPS_FLOOR:
        raise PrecisionError(f"euler product eps floor is {_PRODUCT_EPS_FLOOR:g}, got {eps}")
    P = _HEAD_PRIME_BOUND
    terms, err = [], 0.0
    for (diff, diff_err), c in zip(_prime_zeta_tails()[2:], coeffs[2:]):
        c = float(c)
        terms.append(c * diff)
        err += abs(c) * diff_err
    tail = math.fsum(terms)
    err += _sum_bound(math.fsum(map(abs, terms)))
    # the degrees s > S add at most sum_{s>S} 4^s P^(1-s)/(s-1)
    err += P / _SERIES_DEGREE * (4 / P) ** (_SERIES_DEGREE + 1) / (1 - 4 / P)
    log_value = math.fsum(log_head) - tail
    err += _sum_bound(math.fsum(map(abs, log_head))) + log_head_err
    err += _U * abs(log_value)
    value = lead * math.exp(log_value)
    # exp, the product with lead and lead's own roundings stay within 12u
    bound = value * (math.expm1(err) + 12 * _U)
    _refuse_above(bound, eps)
    return ConstantValue(
        value, bound, "euler_product",
        {**params, "prime_bound": P, "primes": len(_HEAD_PRIMES), "tail": "prime_zeta", "eps": eps},
    )


def zeta(k: int, eps: float = 1e-12) -> ConstantValue:
    """zeta(k) for integer 2 <= k <= 64, from the CRVZ sum of eta(k).

    One division rounds num/den of :func:`_zeta_ratio`, so the value is
    within u value + 2 zeta(k)/d + 2^-122, below 2e-16 for every k. An eps
    below that bound is refused.
    """
    if not 2 <= k <= _ZETA_MAX:
        raise ValueError(f"k must be in [2, {_ZETA_MAX}], got {k}")
    num, den = _zeta_ratio(k)
    value = num / den
    bound = value * (_U + 2 / _CRVZ_D) + 2.0**-122
    _refuse_above(bound, eps)
    return ConstantValue(value, bound, "series", {"terms": _CRVZ_TERMS, "eps": eps, "k": k})


def inv_zeta(k: int, eps: float = 1e-12) -> ConstantValue:
    """1/zeta(k), the k-tuple coprimality and k-free density limit."""
    z = zeta(k, math.inf)  # only this function's own bound is held against eps
    value = 1.0 / z.value
    # zeta >= 1, so |d(1/z)| <= dz / z^2 <= dz
    bound = z.abs_error_bound / (z.value * (z.value - z.abs_error_bound)) + 2 * _U
    _refuse_above(bound, eps)
    return ConstantValue(value, bound, "series", {"terms": z.params["terms"], "eps": eps, "k": k})


def euler_product_inv_zeta2(eps: float = 1e-9) -> ConstantValue:
    """prod_p (1 - p^-2), the product route to 6/pi^2.

    The primes p <= P enter factor by factor and the rest through
    -log(1 - x^2) = sum_m x^(2m)/m and the prime zeta function.
    """
    log_head = [math.log1p(-1.0 / (p * p)) for p in _HEAD_PRIMES]
    return _euler_product(log_head, _neg_log_series([1, 0, -1]), eps)


def catalan(eps: float = 1e-9) -> ConstantValue:
    """Catalan's G = sum_j (-1)^j/(2j+1)^2 as a CRVZ sum, rounded once.

    The measure is -log x / (4 sqrt x) dx, so the value is within
    u value + 2G/d + 2^-123 of G. An eps below that bound is refused.
    """
    value = _crvz_sum(lambda j: (2 * j + 1) ** 2) / (_CRVZ_D << _FIX)
    bound = value * (_U + 2 / _CRVZ_D) + 2.0**-123
    _refuse_above(bound, eps)
    return ConstantValue(value, bound, "alternating_series", {"terms": _CRVZ_TERMS, "eps": eps})


def gaussian_coprime_constant(eps: float = 1e-9) -> ConstantValue:
    """6/(pi^2 G): density of coprime pairs of Gaussian integers."""
    g = catalan(math.inf)  # only this function's own bound is held against eps
    value = 6.0 / (math.pi**2 * g.value)
    bound = g.abs_error_bound * value / (g.value - g.abs_error_bound) + 8 * _U * value
    _refuse_above(bound, eps)
    return ConstantValue(value, bound, "alternating_series", {"eps": eps, "catalan_terms": g.params["terms"]})


def pairwise_triple_constant(eps: float = 1e-9) -> ConstantValue:
    """Q = (36/pi^4) prod_p (1 - (p+1)^-2): pairwise-coprime triple density."""
    # -log(1 - (p+1)^-2) = log((1 + x)^2 / (1 + 2x)) at x = 1/p, so
    # c_s = (-1)^s (2^s - 2)/s and |c_s| <= 2^s
    coeffs = [Fraction(0)] + [
        Fraction((-1) ** s * (2**s - 2), s) for s in range(1, _SERIES_DEGREE + 1)
    ]
    log_head = [math.log1p(-1.0 / ((p + 1) * (p + 1))) for p in _HEAD_PRIMES]
    return _euler_product(log_head, coeffs, eps, lead=36.0 / math.pi**4)


def delta_determinant_constant(n: int | None, eps: float = 1e-9) -> ConstantValue:
    """Determinant-coprimality constant for dimension n (None = limit).

    Per prime the factor is F = 1 - (1 - prod_{k=1..n} (1 - p^-k))^2; at n = 1
    the bracket collapses algebraically to 1 - p^-2, so that case is served as
    the closed form 6/pi^2. The primes p <= P enter factor by factor, the rest
    through the power series of -log F in 1/p and the prime zeta function.
    """
    if n is not None and not 1 <= n <= 500:
        raise ValueError(f"dimension must be in [1, 500] or None, got {n}")
    if n == 1:
        cv = _closed(6.0 / math.pi**2, {"dim": 1, "eps": eps})
        _refuse_above(cv.abs_error_bound, eps)
        return cv
    log_head, head_errs = [], []
    for p in _HEAD_PRIMES:
        inner, k = 1.0, 1
        # factors with p^-k < 2^-64 are left out: together they move inner
        # by less than sum_{k>K} p^-k <= 2^-63
        while (n is None or k <= n) and p**k <= 1 << 64:
            inner *= 1.0 - p ** -float(k)
            k += 1
        g = 1.0 - inner
        log_head.append(math.log1p(-g * g))
        # each factor 1 - p^-k is within 3u and each product adds u, so after
        # K factors inner is within 4.01 K u; log1p moves by dy / (1 - y) at y = g^2
        dg = 4.01 * _U * (k - 1) * inner + _U * g + 2.0**-63
        dy = dg * (2 * g + dg) + _U * g * g
        head_errs.append(dy / (1 - g * g - dy) + 2 * _U * abs(log_head[-1]))
    S = _SERIES_DEGREE
    poly = [1] + [0] * S  # prod_{k <= n} (1 - x^k) through degree S
    for k in range(1, min(n or S, S) + 1):
        poly = [a - (poly[i - k] if i >= k else 0) for i, a in enumerate(poly)]
    gap = [0] + [-a for a in poly[1:]]
    f = [int(i == 0) - sum(gap[j] * gap[i - j] for j in range(i + 1)) for i in range(S + 1)]
    # on |x| = 1/4, |1 - prod (1 - x^k)| <= e^(1/3) - 1, so Cauchy's estimate
    # gives |c_s| <= -log(1 - (e^(1/3) - 1)^2) 4^s = 0.17 * 4^s
    return _euler_product(
        log_head, _neg_log_series(f), eps, log_head_err=math.fsum(head_errs), dim=n
    )


def _closed(value: float, extra: dict | None = None) -> ConstantValue:
    return ConstantValue(value, 8 * _U * abs(value), "closed_form", extra or {})


@lru_cache(maxsize=None)
def reference_constant(
    kind: str,
    k: int | None = None,
    j: int | None = None,
    t: int | None = None,
    dim: int | None = None,
) -> ConstantValue:
    """Limiting constant for an experiment tag, each certified to 1e-9."""
    if kind in ("pair", "visible", "squarefree", "fgcd"):
        return _closed(6.0 / math.pi**2)
    if kind == "odd_pair":
        return _closed(8.0 / math.pi**2)
    if kind == "gcd_eq":
        if t is None or t < 1:
            raise ValueError("gcd_eq reference needs t >= 1")
        return _closed(6.0 / (math.pi**2 * t * t), {"t": t})
    if kind == "ktuple":
        if k is None:
            raise ValueError("ktuple reference needs k")
        return inv_zeta(k, 1e-9)
    if kind == "kfree":
        if j is None:
            raise ValueError("kfree reference needs j")
        return inv_zeta(j, 1e-9)
    if kind == "triple3":
        return pairwise_triple_constant()
    if kind == "gaussian":
        return gaussian_coprime_constant()
    if kind == "det":
        return delta_determinant_constant(dim)
    if kind == "prime_density":
        return ConstantValue(0.0, 0.0, "closed_form", {})
    raise ValueError(f"unknown experiment kind {kind!r}")
