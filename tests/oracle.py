"""The package's constants at 50 digits, from mpmath, for the tests.

An Euler product multiplies the factors of the primes p <= PRIMES in mpmath
and sums the rest as sum_s c_s (P(s) - sum_{p <= PRIMES} p^-s), with
P = mpmath.primezeta and -log F(x) = sum_s c_s x^s expanded here as
sum_m h^m / m for F = 1 - h. The coefficients of these factors grow at most
like 4^s, so the series terms past DEGREE are below (4/100)^40 = 1e-56.
Nothing here calls the package.
"""

from fractions import Fraction
from functools import lru_cache

import mpmath as mp

DPS = 50
PRIMES = 100
DEGREE = 40


def _series_mul(a, b):
    out = [Fraction(0)] * (DEGREE + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: DEGREE + 1 - i]):
                out[i + j] += x * y
    return out


def _neg_log_coeffs(f):
    h = [Fraction(0)] + [-Fraction(c) for c in f[1:]]
    h += [Fraction(0)] * (DEGREE + 1 - len(h))
    out = [Fraction(0)] * (DEGREE + 1)
    power = [Fraction(1)] + [Fraction(0)] * DEGREE
    for m in range(1, DEGREE // 2 + 1):  # h = O(x^2)
        power = _series_mul(power, h)
        out = [o + c / m for o, c in zip(out, power)]
    return out


def _delta_factor_series(dim):
    inner = [Fraction(1)]
    for k in range(1, min(dim or DEGREE, DEGREE) + 1):
        inner = _series_mul(inner, [1] + [0] * (k - 1) + [-1])
    gap = [-c for c in inner]
    gap[0] += 1
    f = [-c for c in _series_mul(gap, gap)]
    f[0] += 1
    return f


def _delta_factor(dim, p):
    inner = mp.mpf(1)
    for k in range(1, (dim or 170) + 1):  # 2^-170 is below 50 digits
        inner *= 1 - p**-k
    return 1 - (1 - inner) ** 2


@lru_cache(maxsize=None)
def euler_product(name):
    """'inv_zeta2', 'q3' (Q = prod_p (1 - 1/p)^2 (1 + 2/p)) or ('delta', dim), dim None for the limit."""
    if name == "inv_zeta2":
        f, factor = [1, 0, -1], lambda p: 1 - p**-2
    elif name == "q3":
        f, factor = [1, 0, -3, 2], lambda p: (1 - 1 / p) ** 2 * (1 + 2 / p)
    else:
        dim = name[1]
        f, factor = _delta_factor_series(dim), lambda p: _delta_factor(dim, p)
    primes = [p for p in range(2, PRIMES + 1) if all(p % q for q in range(2, p))]
    c = _neg_log_coeffs(f)
    with mp.workdps(DPS):
        head = mp.fprod(factor(mp.mpf(p)) for p in primes)
        tail = mp.fsum(
            mp.mpf(c[s].numerator) / c[s].denominator
            * (mp.primezeta(s) - mp.fsum(mp.mpf(p) ** -s for p in primes))
            for s in range(2, DEGREE + 1)
            if c[s]
        )
        return head * mp.exp(-tail)


def zeta(k):
    with mp.workdps(DPS):
        return +mp.zeta(k)


def catalan():
    with mp.workdps(DPS):
        return +mp.catalan


def gaussian():
    """6/(pi^2 G), the coprime density of Gaussian integer pairs."""
    with mp.workdps(DPS):
        return 6 / (mp.pi**2 * mp.catalan)
