"""Exact arithmetic in the ring of Gaussian integers a + bi.

The ring is Euclidean under the norm a^2 + b^2: rounding each coordinate of
z/w to the nearest integer leaves a remainder of norm at most norm(w)/2,
which makes the gcd loop terminate geometrically. gcd results are returned
as the canonical first-quadrant associate (re > 0, im >= 0) so equalities
are testable.
"""

from typing import NamedTuple


class GaussianInt(NamedTuple):
    re: int
    im: int

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __add__(self, other):
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        return f"{self.re}{self.im:+}i"


ZERO = GaussianInt(0, 0)

#: The four units of the ring.
UNITS = (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1))


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to the even integer."""
    q, r = divmod(num, den)
    two = 2 * r
    if two > den or (two == den and q & 1):
        q += 1
    return q


def div_round(z: GaussianInt, w: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """Quotient and remainder with z = q*w + r and norm(r) <= norm(w)/2.

    q rounds each coordinate of z * conj(w) / norm(w) to nearest, ties to
    even, making runs reproducible bit for bit.
    """
    nw = w.norm()
    if nw == 0:
        raise ZeroDivisionError("division by the zero Gaussian integer")
    zz = z * w.conj()
    q = GaussianInt(_round_half_even(zz.re, nw), _round_half_even(zz.im, nw))
    return q, z - q * w


def canonical_associate(z: GaussianInt) -> GaussianInt:
    """The unit multiple of z with re > 0 and im >= 0 (zero stays zero)."""
    if z.is_zero():
        return ZERO
    for u in UNITS:
        cand = z * u
        if cand.re > 0 and cand.im >= 0:
            return cand
    raise AssertionError(f"no first-quadrant associate for {z}")  # unreachable


def gcd(z: GaussianInt, w: GaussianInt) -> GaussianInt:
    """Greatest common divisor as the canonical associate."""
    g, _ = _gcd_steps(z, w)
    return g


def _gcd_steps(z: GaussianInt, w: GaussianInt) -> tuple[GaussianInt, int]:
    if z.is_zero() and w.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    steps = 0
    while not w.is_zero():
        _, r = div_round(z, w)
        z, w = w, r
        steps += 1
    return canonical_associate(z), steps


def is_coprime(z: GaussianInt, w: GaussianInt) -> bool:
    """True when the only common divisors of z and w are units."""
    return gcd(z, w).norm() == 1
