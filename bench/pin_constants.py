"""Print the reference constants that bench/pins.py holds, from mpmath.

Run once by hand (mpmath is a test-only dependency; the benchmark itself
never imports it):

    python3 bench/pin_constants.py

Euler products over primes are summed exactly up to ``B`` and the tail
p > B is taken through the prime zeta function: with log F(1/p) =
sum_s c_s p^-s, the tail is sum_s c_s (P(s) - sum_{p <= B} p^-s).
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50
B = 10**5
DEGREE = 24


def _primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit + 1) if flags[p]]


def _mul(a, b):
    out = [Fraction(0)] * (DEGREE + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: DEGREE + 1 - i]):
                out[i + j] += x * y
    return out


def _log_series(f):
    """Coefficients of log f for a power series with f[0] = 1: (log f)' = f'/f."""
    df = [(i + 1) * f[i + 1] for i in range(DEGREE)]
    q = [Fraction(0)] * DEGREE  # q = f'/f by long division
    for i in range(DEGREE):
        q[i] = df[i] - sum(q[j] * f[i - j] for j in range(i))
    return [Fraction(0)] + [q[i - 1] / i for i in range(1, DEGREE + 1)]


def euler_product(series, factor):
    """prod_p factor(p), with series = power-series coefficients of factor(1/x)."""
    primes = _primes(B)
    head = mp.mpf(1)
    for p in primes:
        head *= factor(mp.mpf(p))
    coeffs = _log_series(series)
    tail = mp.mpf(0)
    for s in range(2, DEGREE + 1):
        if coeffs[s]:
            partial = mp.fsum(mp.mpf(p) ** -s for p in primes)
            tail += mp.mpf(coeffs[s].numerator) / coeffs[s].denominator * (mp.primezeta(s) - partial)
    return head * mp.exp(tail)


def _poly(*terms):
    out = [Fraction(0)] * (DEGREE + 1)
    for power, c in terms:
        out[power] += c
    return out


def q3():
    # Q = prod_p (1 - 1/p)^2 (1 + 2/p)
    one_minus = _poly((0, 1), (1, -1))
    series = _mul(_mul(one_minus, one_minus), _poly((0, 1), (1, 2)))
    return euler_product(series, lambda p: (1 - 1 / p) ** 2 * (1 + 2 / p))


def delta(dim):
    # Delta(n) = prod_p 1 - (1 - prod_{k<=n} (1 - p^-k))^2, n = None for the limit
    kmax = DEGREE if dim is None else dim
    inner = _poly((0, 1))
    for k in range(1, min(kmax, DEGREE) + 1):
        inner = _mul(inner, _poly((0, 1), (k, -1)))
    gap = [-c for c in inner]
    gap[0] += 1
    sq = _mul(gap, gap)
    series = [-c for c in sq]
    series[0] += 1

    def factor(p):
        prod = mp.mpf(1)
        for k in range(1, (200 if dim is None else dim) + 1):
            prod *= 1 - p**-k
        return 1 - (1 - prod) ** 2

    return euler_product(series, factor)


if __name__ == "__main__":
    refs = {
        "zeta3": mp.zeta(3),
        "catalan": mp.catalan,
        "inv_zeta2": 6 / mp.pi**2,
        "q3": q3(),
        "delta_inf": delta(None),
        "delta_6": delta(6),
    }
    for name, val in refs.items():
        print(f'    "{name}": "{mp.nstr(val, 30)}",')
