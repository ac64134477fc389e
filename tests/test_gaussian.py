import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab.gaussian import (
    UNITS,
    GaussianInt,
    _gcd_steps,
    canonical_associate,
    div_round,
    gcd,
    is_coprime,
)

G = GaussianInt


def test_norm_multiplicative():
    rng = random.Random(1)
    for _ in range(500):
        z = G(rng.randint(-50, 50), rng.randint(-50, 50))
        w = G(rng.randint(-50, 50), rng.randint(-50, 50))
        assert (z * w).norm() == z.norm() * w.norm()
    assert G(0, 0).norm() == 0
    assert all(u.norm() == 1 for u in UNITS)


def test_div_round_unit_divisor():
    for z in (G(3, -7), G(0, 0), G(-5, 2)):
        q, r = div_round(z, G(1, 0))
        assert q == z and r == G(0, 0)


def test_div_round_exact_example():
    # (2+i)(2-i) = 5
    q, r = div_round(G(5, 0), G(2, -1))
    assert q == G(2, 1) and r == G(0, 0)


def test_div_round_ties_to_even():
    # 1/2 = 0.5 rounds to 0; 3/2 = 1.5 rounds to 2
    q, _ = div_round(G(1, 0), G(2, 0))
    assert q == G(0, 0)
    q, _ = div_round(G(3, 0), G(2, 0))
    assert q == G(2, 0)


def test_div_round_contract_exhaustive():
    # remainder norm at most half the divisor norm, all coords in [-20, 20]
    span = range(-20, 21)
    values = [G(a, b) for a in span for b in span]
    nonzero = [w for w in values if not w.is_zero()]
    for z in values:
        for w in nonzero:
            q, r = div_round(z, w)
            assert q * w + r == z
            assert 2 * r.norm() <= w.norm(), (z, w)


def test_div_round_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        div_round(G(1, 1), G(0, 0))


def test_canonical_associate():
    assert canonical_associate(G(0, 0)) == G(0, 0)
    rng = random.Random(2)
    for _ in range(300):
        z = G(rng.randint(-30, 30), rng.randint(-30, 30))
        if z.is_zero():
            continue
        c = canonical_associate(z)
        assert c.re > 0 and c.im >= 0
        # exactly one associate lands in the first quadrant
        hits = [z * u for u in UNITS if (z * u).re > 0 and (z * u).im >= 0]
        assert hits == [c]


def test_gcd_examples():
    assert gcd(G(7, -3), G(0, 0)) == canonical_associate(G(7, -3))
    assert gcd(G(5, 0), G(3, 1)) == G(1, 2)
    assert gcd(G(1, 1), G(1, -1)) == G(1, 1)


def test_gcd_undefined():
    with pytest.raises(ValueError):
        gcd(G(0, 0), G(0, 0))


def _divides(d, z):
    _, r = div_round(z, d)
    return r.is_zero()


def test_gcd_divides_and_is_greatest_exhaustive():
    """gcd divides both arguments, and every common divisor divides the gcd.

    gcd is invariant under unit multiples (checked separately below), so the
    exhaustive sweep runs over first-quadrant representatives with coords up
    to 10; candidate divisors are prefiltered through norm divisibility.
    """
    reps = [G(a, b) for a in range(0, 11) for b in range(0, 11) if (a, b) != (0, 0)]
    by_norm = {}
    for d in reps:
        by_norm.setdefault(d.norm(), []).append(d)
    for z in reps:
        nz = z.norm()
        for w in reps:
            g = gcd(z, w)
            assert _divides(g, z) and _divides(g, w), (z, w)
            ng = math.gcd(nz, w.norm())
            for nd, cands in by_norm.items():
                if nd > ng or ng % nd:
                    continue
                for d in cands:
                    if _divides(d, z) and _divides(d, w):
                        assert _divides(d, g), (z, w, d)


def gaussians(bound):
    return st.builds(G, st.integers(-bound, bound), st.integers(-bound, bound))


#: First-quadrant representatives with coordinates up to 8: the brute-force
#: candidate divisors (divisibility does not see unit multiples).
SMALL_DIVISORS = [G(a, b) for a in range(9) for b in range(9) if (a, b) != (0, 0)]


@settings(max_examples=200, deadline=None)
@given(gaussians(2**12).filter(lambda c: not c.is_zero()), gaussians(2**27), gaussians(2**27))
def test_gcd_divides_and_is_greatest_large(c, a, b):
    """Beyond the exhaustive box: z = c*a and w = c*b have coordinates up to
    2^40 and the common divisor c; gcd divides both, and every common divisor
    found (c and the small candidates) divides the gcd."""
    z, w = c * a, c * b
    if z.is_zero() and w.is_zero():
        return
    g = gcd(z, w)
    assert _divides(g, z) and _divides(g, w), (z, w)
    assert math.gcd(z.norm(), w.norm()) % g.norm() == 0
    for d in [c] + SMALL_DIVISORS:
        if _divides(d, z) and _divides(d, w):
            assert _divides(d, g), (z, w, d)


def test_gcd_unit_invariance_and_symmetry():
    rng = random.Random(3)
    for _ in range(300):
        z = G(rng.randint(-40, 40), rng.randint(-40, 40))
        w = G(rng.randint(-40, 40), rng.randint(-40, 40))
        if z.is_zero() and w.is_zero():
            continue
        g = gcd(z, w)
        assert gcd(w, z) == g
        for u in UNITS:
            if not z.is_zero() or not (z * u).is_zero():
                assert gcd(z * u, w) == g


def test_euclid_termination_bound():
    rng = random.Random(4)
    for _ in range(500):
        z = G(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        w = G(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if z.is_zero() and w.is_zero():
            continue
        _, steps = _gcd_steps(z, w)
        mn = min(n for n in (z.norm(), w.norm()) if n > 0)
        assert steps <= 2 * math.log2(mn) + 4, (z, w, steps)


def test_is_coprime_examples():
    rng = random.Random(5)
    for _ in range(100):
        w = G(rng.randint(-20, 20), rng.randint(-20, 20))
        if not w.is_zero():
            assert is_coprime(G(1, 0), w)
    assert not is_coprime(G(2, 0), G(1, 1))  # (1+i) divides 2
    assert not is_coprime(G(3, 1), G(5, 0))  # common factor 2-i
    assert is_coprime(G(3, 0), G(5, 0))
