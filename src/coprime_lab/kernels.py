"""Vectorised integer kernels shared by the exact and Monte Carlo layers.

This module needs numpy only, so `exact` and `montecarlo` can both use it
without loading each other.
"""

import math

import numpy as np

#: Largest operand gcd_lanes runs in float64; larger lanes go to np.gcd.
FLOAT_GCD_MAX = 1 << 52

#: Largest operand gcd_lanes runs in float32, whose vectors hold twice the lanes.
_FLOAT32_GCD_MAX = 1 << 23

#: Mean steps of nearest-remainder Euclid per unit of ln(operand), 12 ln(phi) / pi^2
#: with phi the golden ratio (Knuth, TAOCP vol. 2, 4.5.3): 8.1 at 1e6, 12.1 at 1e9.
_STEPS_PER_LOG = 12 * math.log((1 + math.sqrt(5)) / 2) / math.pi**2

#: Steps between two collections of finished lanes, after the first run.
_STEPS_BETWEEN = 3


def gcd_lanes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.gcd(a, b) for equal-length 1-D arrays of integers >= 0, in its dtype.

    Lanes up to FLOAT_GCD_MAX run Euclid's algorithm with nearest-integer
    quotients on floating-point copies x = a, y = b: float32 when every lane
    is at most 2^23, float64 above. Each step sets
    q = rint(x / fl(y + 2^-64)), x = x - q y and swaps x and y; remainders
    keep their sign, as gcd(x, y) = gcd(|x|, |y|). The first run takes one
    step past the mean step count at the lanes' largest value (past the
    median and short of the 90th percentile); then, and after every
    _STEPS_BETWEEN steps, the lanes with x y = 0 take |x + y| as their gcd
    and the rest are compacted.

    With a p-bit significand (24 in float32, 53 in float64) and u = 2^-p,
    every step is exact while |x|, |y| <= 2^(p-1):

    - y != 0: 2^-64 is below half an ulp of |y| >= 1, so the divisor is y.
      fl(x / y) is within |x / y| u of x / y, so |q y - x| <= |y|/2 + |x| u
      <= |y|/2 + 1/2. The integers q y and x - q y are then below 2^p in
      magnitude, so the float type holds them exactly. The new remainder
      has magnitude at most (|y| + 1)/2 < |y| for |y| >= 2, and is 0 for
      |y| = 1 (x / y is exact), so every lane reaches a zero.
    - y = 0: q = x 2^64 exactly and q 0 = 0, so x is kept and the pair
      swaps to (0, x), whose next step (q = 0) swaps it back. A finished
      lane stays finished, with gcd |x + y|; this gives np.gcd(x, 0) = x and
      gcd(0, 0) = 0.
    - No step makes inf or nan: every divisor is at least 2^-64 in
      magnitude, every quotient at most 2^116, every x y at most 2^104, and
      every other value is one of the exact integers above.
    """
    bound = max(int(a.max(initial=0)), int(b.max(initial=0)))
    if bound > FLOAT_GCD_MAX:
        return np.gcd(a, b)
    ftype = np.float32 if bound <= _FLOAT32_GCD_MAX else np.float64
    x, y = a.astype(ftype), b.astype(ftype)
    t = np.empty_like(x)
    lanes = None  # where the live lanes sit in out (the gcds), after the first collection
    steps = math.ceil(_STEPS_PER_LOG * math.log1p(bound)) + 1
    while True:
        for _ in range(steps):
            np.add(y, 2.0**-64, out=t)
            np.divide(x, t, out=t)
            np.rint(t, out=t)
            t *= y
            x -= t
            x, y = y, x
        live = np.flatnonzero(np.multiply(x, y, out=t) != 0)
        # a finished lane's gcd is |x + y|; a live lane's is written again later
        np.abs(np.add(x, y, out=t), out=t)
        if lanes is None:
            out, t = t, np.empty(live.size, dtype=ftype)
        else:
            out[lanes] = t
            t = t[: live.size]
        if not live.size:
            return out.astype(np.result_type(a, b))
        lanes = live if lanes is None else lanes.take(live)
        x, y = x.take(live), y.take(live)
        steps = _STEPS_BETWEEN
