"""Limiting constants with certified absolute-error bounds.

Each function returns a :class:`ConstantValue` whose ``abs_error_bound`` is
rigorous: truncation tails are bounded analytically (Euler-Maclaurin
remainders, alternating-series terms, prime-zeta series remainders) and the
floating-point contribution by standard pairwise-summation bounds, so the
true constant always lies in ``value +- abs_error_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PrecisionError
from .sieve import primes_up_to, shared_tables

#: Euler products multiply the factors of the primes up to this bound one by
#: one and take the primes past it through the prime zeta function.
_HEAD_PRIME_BOUND = 1000

#: Degree through which -log F(x) = sum_s c_s x^s is expanded exactly, for
#: an Euler factor F_p = F(1/p); past it |c_s| <= 4^s bounds the series.
_SERIES_DEGREE = 16

#: Smallest eps an Euler product accepts. Every bound it certifies (6/pi^2,
#: Q, and Delta at each dimension 2-500 and in the limit) is at most 5.85e-14.
_PRODUCT_EPS_FLOOR = 1e-11

#: Largest argument of the certified zeta.
_ZETA_MAX = 64

_U = 2.0**-53


@dataclass(frozen=True)
class ConstantValue:
    """A computed constant: true value lies in value +- abs_error_bound."""

    value: float
    abs_error_bound: float
    method: str
    params: dict


def _sum_bound(abs_sum: float, count: int) -> float:
    """Rigorous bound on numpy pairwise-summation error plus per-term noise."""
    return (math.ceil(math.log2(max(count, 2))) + 4) * _U * abs_sum + 2**-52


def _neg_log_series(f: list) -> list:
    """c_0..c_S of -log f(x) = sum_s c_s x^s for integer coefficients f, f_0 = 1.

    From f (-log f)' = -f': n c_n = -n f_n - sum_{0<j<n} f_j (n - j) c_{n-j}.
    """
    f = list(f) + [0] * (_SERIES_DEGREE + 1 - len(f))
    c = [Fraction(0)] * (_SERIES_DEGREE + 1)
    for n in range(1, _SERIES_DEGREE + 1):
        c[n] = -f[n] - sum(f[j] * (n - j) * c[n - j] for j in range(1, n)) / Fraction(n)
    return c


def _euler_product(
    pf: np.ndarray, log_head: np.ndarray, coeffs: list, eps: float,
    lead: float = 1.0, log_head_err: float = 0.0, **params,
) -> ConstantValue:
    """lead * prod_p F_p, certified to eps, with -log F_p = sum_{s>=2} c_s p^-s.

    pf holds the primes p <= P = _HEAD_PRIME_BOUND and log_head their log F_p,
    each within a few roundings or within log_head_err in total beyond that;
    coeffs holds c_0..c_S exactly (c_0 = c_1 = 0) and |c_s| <= 4^s for all s.
    The primes past P add sum_s c_s (P(s) - sum_{p<=P} p^-s), with the prime
    zeta function P(s) = sum_k mu(k)/k log zeta(ks), or are bounded by
    0 <= sum_{p>P} p^-s <= P^(1-s)/(s-1) where that is tighter.
    """
    if eps < _PRODUCT_EPS_FLOOR:
        raise PrecisionError(f"euler product eps floor is {_PRODUCT_EPS_FLOOR:g}, got {eps}")
    P = _HEAD_PRIME_BOUND
    zetas = [zeta(m, 1e-14) for m in range(2, _ZETA_MAX + 1)]
    log_zeta = np.array([0.0, 0.0] + [math.log(z.value) for z in zetas])  # index m
    # zeta(m) and its value are both >= 1, where log is 1-Lipschitz
    log_zeta_err = np.array([0.0, 0.0] + [z.abs_error_bound for z in zetas]) + 2 * _U * log_zeta
    mu = shared_tables(_ZETA_MAX // 2).mu
    terms, err = [], 0.0
    for s in range(2, _SERIES_DEGREE + 1):
        k = np.arange(1, _ZETA_MAX // s + 1)
        pz = mu[k] * log_zeta[k * s] / k
        pz_err = float(np.sum(log_zeta_err[k * s] / k)) + _sum_bound(float(np.sum(np.abs(pz))), len(k))
        # the dropped k have ks > 64, where log zeta(m) <= zeta(m) - 1 <=
        # 2^-m (1 + 2/(m-1)) <= 2^(1-m), so together they add at most 2^-63
        pz_err += 2.0**-63
        head = float(np.sum(pf ** -float(s)))
        diff = float(np.sum(pz)) - head
        diff_err = pz_err + _sum_bound(head, len(pf)) + _U * abs(diff)
        trunc = P ** (1.0 - s) / (s - 1)
        c = float(coeffs[s])
        if diff_err < trunc:
            terms.append(c * diff)
        err += abs(c) * min(diff_err, trunc)
    tail = math.fsum(terms)
    err += _sum_bound(math.fsum(map(abs, terms)), len(terms))
    # the degrees s > S add at most sum_{s>S} 4^s P^(1-s)/(s-1)
    err += P / _SERIES_DEGREE * (4 / P) ** (_SERIES_DEGREE + 1) / (1 - 4 / P)
    log_value = float(np.sum(log_head)) - tail
    err += _sum_bound(float(np.sum(np.abs(log_head))), len(log_head)) + log_head_err
    err += _U * abs(log_value)
    value = lead * math.exp(log_value)
    # exp, the product with lead and lead's own roundings stay within 12u
    bound = value * (math.expm1(err) + 12 * _U)
    if bound > eps:
        raise PrecisionError(f"certified bound {bound:.2e} exceeds requested {eps:.2e}")
    return ConstantValue(
        value, bound, "euler_product",
        {**params, "prime_bound": P, "primes": len(pf), "tail": "prime_zeta", "eps": eps},
    )


def zeta(k: int, eps: float = 1e-12) -> ConstantValue:
    """zeta(k) for integer 2 <= k <= 64 via Euler-Maclaurin acceleration.

    value = sum_{n<M} n^-k + M^(1-k)/(k-1) + M^-k/2; the omitted remainder is
    positive and at most (k/12) M^-(k+1), which fixes M.
    """
    if not 2 <= k <= _ZETA_MAX:
        raise ValueError(f"k must be in [2, {_ZETA_MAX}], got {k}")
    if eps < 1e-14:
        raise PrecisionError(f"zeta eps floor is 1e-14, got {eps}")
    M = max(2, int((k / (6.0 * eps)) ** (1.0 / (k + 1))) + 1)
    n = np.arange(1, M, dtype=np.float64)
    terms = n ** (-float(k))
    tail = M ** (1.0 - k) / (k - 1) + 0.5 * M ** (-float(k))
    value = float(np.sum(terms)) + tail
    trunc = (k / 12.0) * M ** (-(k + 1.0))
    bound = trunc + _sum_bound(value, M + 2)
    return ConstantValue(value, bound, "series", {"terms": M - 1, "eps": eps, "k": k})


def inv_zeta(k: int, eps: float = 1e-12) -> ConstantValue:
    """1/zeta(k), the k-tuple coprimality and k-free density limit."""
    z = zeta(k, eps / 2)
    value = 1.0 / z.value
    # zeta >= 1, so |d(1/z)| <= dz / z^2 <= dz
    bound = z.abs_error_bound / (z.value * (z.value - z.abs_error_bound)) + 2 * _U
    return ConstantValue(value, bound, "series", {"terms": z.params["terms"], "eps": eps, "k": k})


def euler_product_inv_zeta2(eps: float = 1e-9) -> ConstantValue:
    """prod_p (1 - p^-2), the product route to 6/pi^2.

    The primes p <= P enter factor by factor and the rest through
    -log(1 - x^2) = sum_m x^(2m)/m and the prime zeta function.
    """
    pf = primes_up_to(_HEAD_PRIME_BOUND).astype(np.float64)
    return _euler_product(pf, np.log1p(-1.0 / (pf * pf)), _neg_log_series([1, 0, -1]), eps)


def catalan(eps: float = 1e-9) -> ConstantValue:
    """Catalan's constant via its alternating series.

    Summing K terms leaves a remainder below the next term 1/(2K+1)^2.
    """
    if eps < 1e-12:
        raise PrecisionError(f"catalan eps floor is 1e-12, got {eps}")
    K = int(0.5 * (1.0 / math.sqrt(0.9 * eps) - 1.0)) + 2
    k = np.arange(K, dtype=np.float64)
    terms = np.where(k % 2 == 0, 1.0, -1.0) / ((2 * k + 1) ** 2)
    value = float(np.sum(terms))
    bound = 1.0 / (2 * K + 1) ** 2 + _sum_bound(float(np.sum(np.abs(terms))), K)
    return ConstantValue(value, bound, "alternating_series", {"terms": K, "eps": eps})


def gaussian_coprime_constant(eps: float = 1e-9) -> ConstantValue:
    """6/(pi^2 G): density of coprime pairs of Gaussian integers."""
    if eps < 2e-12:
        raise PrecisionError(f"gaussian constant eps floor is 2e-12, got {eps}")
    g = catalan(eps / 2)
    value = 6.0 / (math.pi**2 * g.value)
    bound = g.abs_error_bound * value / (g.value - g.abs_error_bound) + 8 * _U * value
    return ConstantValue(value, bound, "alternating_series", {"eps": eps, "catalan_terms": g.params["terms"]})


def pairwise_triple_constant(eps: float = 1e-9) -> ConstantValue:
    """Q = (36/pi^4) prod_p (1 - (p+1)^-2): pairwise-coprime triple density."""
    pf = primes_up_to(_HEAD_PRIME_BOUND).astype(np.float64)
    q = pf + 1.0
    # -log(1 - (p+1)^-2) = log((1 + x)^2 / (1 + 2x)) at x = 1/p, so
    # c_s = (-1)^s (2^s - 2)/s and |c_s| <= 2^s
    coeffs = [Fraction(0)] + [
        Fraction((-1) ** s * (2**s - 2), s) for s in range(1, _SERIES_DEGREE + 1)
    ]
    return _euler_product(pf, np.log1p(-1.0 / (q * q)), coeffs, eps, lead=36.0 / math.pi**4)


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
        if cv.abs_error_bound > eps:
            raise PrecisionError(f"certified bound {cv.abs_error_bound:.2e} exceeds requested {eps:.2e}")
        return cv
    pf = primes_up_to(_HEAD_PRIME_BOUND).astype(np.float64)
    inner = np.ones_like(pf)
    factors = np.zeros_like(pf)
    k = 1
    while n is None or k <= n:
        # factors with p^-k < 2^-64 are left out: together they move inner
        # by less than sum_{k>K} p^-k <= 2^-63
        cut = int(np.searchsorted(pf, 2.0 ** (64.0 / k), side="right"))
        if cut == 0:
            break
        inner[:cut] *= 1.0 - pf[:cut] ** (-float(k))
        factors[:cut] += 1
        k += 1
    g = 1.0 - inner
    log_head = np.log1p(-g * g)
    # each factor 1 - p^-k is within 3u and each product adds u, so after K
    # factors inner is within 4.01 K u; log1p moves by dy / (1 - y) at y = g^2
    dg = 4.01 * _U * factors * inner + _U * g + 2.0**-63
    dy = dg * (2 * g + dg) + _U * g * g
    log_head_err = float(np.sum(dy / (1 - g * g - dy) + 2 * _U * np.abs(log_head)))
    S = _SERIES_DEGREE
    poly = [1] + [0] * S  # prod_{k <= n} (1 - x^k) through degree S
    for k in range(1, min(n or S, S) + 1):
        poly = [a - (poly[i - k] if i >= k else 0) for i, a in enumerate(poly)]
    gap = [0] + [-a for a in poly[1:]]
    f = [int(i == 0) - sum(gap[j] * gap[i - j] for j in range(i + 1)) for i in range(S + 1)]
    # on |x| = 1/4, |1 - prod (1 - x^k)| <= e^(1/3) - 1, so Cauchy's estimate
    # gives |c_s| <= -log(1 - (e^(1/3) - 1)^2) 4^s = 0.17 * 4^s
    return _euler_product(pf, log_head, _neg_log_series(f), eps, log_head_err=log_head_err, dim=n)


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
