"""Exact finite-range coprimality counts.

Every operation returns a :class:`DensityResult` whose numerator and
denominator are exact integers (Python ints never wrap, a count below
2^64 is its wrapping uint64 residue, int64 sums stay in proven bounds,
summatory recurrences run in uint64 residues lifted to exact integers,
and fgcd floors are float estimates proven lane by lane or redone in
integers). The float ``value`` is the correctly rounded quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, pi

import numpy as np

from . import constants
from .errors import ResourceLimitError
from .kernels import gcd_lanes
from .sieve import primes_up_to, shared_tables

#: Largest n accepted by the brute-force pairwise-triple counter.
TRIPLE_BRUTE_BOUND = 2000

#: Largest x prime_density accepts: pi(1e11) takes about 1 s (2 vCPUs).
PRIME_DENSITY_MAX = 10**11

#: Largest n f_gcd_density accepts: sqrt(2)*n at 1e7 takes 0.6-1 s (2 vCPUs).
FGCD_MAX = 10**7

#: Microseconds that the lanes of one fgcd count sent to floor_f may take
#: by _floor_f_us: 2 s, which FGCD_MAX's vectorised lanes also stay within.
FGCD_SLOW_BUDGET_US = 2 * 10**6

#: Largest radius visible_points_in_disk accepts: 1e7 takes about 3.5 s (2 vCPUs).
VISIBLE_MAX = 10**7

#: Lanes per block of the vectorised sums (the Möbius sums' term-by-term
#: part, visible, fgcd), which bounds their working memory at any size.
_FLOOR_BLOCK = 1 << 13

@dataclass(frozen=True)
class DensityResult:
    """An exact count numerator/denominator plus its float value.

    ``reference`` is the limiting constant for the experiment (when one
    exists) and ``abs_gap`` the distance of ``value`` from it.
    """

    kind: str
    n: int
    numerator: int
    denominator: int
    value: float
    reference: float | None = None
    abs_gap: float | None = None


def _result(kind, n, num, den, reference=None):
    if not 0 <= num <= den:
        raise AssertionError(f"count invariant violated: {num}/{den} for {kind}")
    value = num / den
    gap = abs(value - reference) if reference is not None else None
    return DensityResult(kind, n, num, den, value, reference, gap)


# ---------------------------------------------------------------------------
# Summatory functions at the quotient points floor(n/k)
# ---------------------------------------------------------------------------

_MOD = 1 << 64

#: Smallest base table the public routes use (all of n below it): a table
#: this size costs less than the recurrence's per-step numpy overhead.
_SMALL_TABLE = 10**4


def _base_size(n: int, j: int = 1) -> int:
    """Base table size for the recurrence at n: about n^(2/(2j+1)), at most iroot(n, j)."""
    return min(iroot(n, j), iroot(n * n, 2 * j + 1))


def _table_size(n: int, j: int = 1) -> int:
    """Base table size the public routes use: the shared table's limit, at
    least _base_size(n, j) (all of iroot(n, j) when small), at most iroot(n, j)."""
    top = iroot(n, j)
    cold = min(top, max(_SMALL_TABLE, _base_size(n, j)))
    return min(top, shared_tables(cold).limit)


def _quotient_values(n: int, L: int, prefix: np.ndarray, G, j: int = 1) -> np.ndarray:
    """big[k] = F(x_k) mod 2^64 at x_k = iroot(n // k, j) > L, that is for
    k = 1..K = n // (L + 1)^j; big[0] is unused.

    F satisfies F(m) = G(m) - sum of F(m // d) over d = 2..m, and prefix is
    a table of F(m) for m = 0..L at least, with L >= isqrt(x_1), as uint64
    residues or exact int32 values (Deleglise & Rivat, Experimental
    Mathematics 5, 1996). As x_k // d = x_(k*d^j) (Pawlewicz, "Counting
    square-free numbers", 2011), the points are filled from k = K up: with
    s = isqrt(m), each d <= s reads m // d from big[k*d^j] while k*d^j <= K
    and from prefix otherwise; the d > s share q = m // d <= m // (s + 1) in
    runs of m // q - m // (q + 1). uint64 wraps mod 2^64 and the recurrence
    is integer-linear, so the residues are exact at any n. An int32 prefix
    sums exactly in int64 (at most sqrt(n) values of size at most L < 2^31),
    and its head up to isqrt(x_1) + 1 is cast to uint64 residues once for
    the dots (a uint64-int32 dot would run in float64).
    """
    K = n // (L + 1) ** j
    big = np.zeros(K + 1, dtype=np.uint64)
    if K == 0:
        return big
    ar = np.arange(isqrt(iroot(n, j)) + 3, dtype=np.int64)
    arj = ar[: iroot(K, j) + 2] ** j
    head = prefix[: len(ar) - 1].astype(np.uint64, copy=False)
    for k in range(K, 0, -1):
        m = iroot(n // k, j)
        s = isqrt(m)
        t = min(s, iroot(K // k, j))
        quo = m // ar[1 : m // (s + 1) + 2]  # m // q for q = 1..Q+1
        runs = (quo[:-1] - quo[1:]).view(np.uint64)
        total = (
            G(m)
            - int(big[k * arj[2 : t + 1]].sum())
            - int(prefix[m // ar[t + 1 : s + 1]].sum())
            - int(np.dot(runs, head[1 : len(quo)]))
        )
        big[k] = total % _MOD
    return big


def _totient_at(n: int, L: int) -> int:
    """Phi(n) from a base table of size L (L = n reads the prefix directly).

    Phi(m) = m(m+1)/2 - sum of Phi(m // d) over d >= 2. Its residue mod 2^64
    is lifted to the integer nearest 3n^2/pi^2, which is exact because
    |Phi(n) - 3n^2/pi^2| <= 2n(ln n + 2) lies far inside 2^63 for every n a
    base table under the sieve cap can reach.
    """
    prefix = shared_tables(L).phi_sum.view(np.uint64)
    if n <= L:
        return int(prefix[n])
    big = _quotient_values(n, L, prefix, lambda m: m * (m + 1) // 2)
    center, half = int(3 * n * n / pi**2), _MOD >> 1
    return center + (int(big[1]) - center + half) % _MOD - half


def _mertens_at_quotients(n: int, L: int, j: int = 1):
    """mertens with mertens(i) = M(iroot(n // i, j)) for int64 arrays i >= 1,
    from a base table of size L; for j > 1, M(L) past n // (L + 1)^j.

    M is the Mertens function, M(m) = 1 - sum of M(m // d) over d >= 2;
    |M(m)| <= m < 2^63, so its uint64 residues read as int64 are exact.
    """
    prefix = shared_tables(L).mu_sum
    big = _quotient_values(n, L, prefix, lambda m: 1, j).view(np.int64)
    K = len(big) - 1

    def mertens(i: np.ndarray) -> np.ndarray:
        low = prefix[np.minimum(n // i, L)] if j == 1 else prefix[L]
        return np.where(i <= K, big[np.minimum(i, K)], low)

    return mertens


def _odd_mertens(mertens, n: int, i: np.ndarray) -> np.ndarray:
    """M_odd(n // i), the Mertens sum over odd d only, for ascending i.

    Even d = 2e has mu(d) = -mu(e) for odd e, so M(x) = M_odd(x) -
    M_odd(x // 2) and M_odd(x) = sum over j of M(x // 2^j); each
    x // 2^j = n // (i * 2^j) is again a quotient point of n.
    """
    total = np.zeros(len(i), dtype=np.int64)
    while len(i):
        total[: len(i)] += mertens(i)
        i = i[i <= n // 2] * 2
    return total


def _mobius_sum(n: int, k: int, odd: bool = False, j: int = 1) -> int:
    """sum of mu(d) * g(n // d^j) over d = 1..n (odd d only if odd), exactly,
    with g(q) = q^k, or ((q + 1) // 2)^2 for odd pairs (odd with k = 2).

    d <= D is summed term by term, in blocks of _FLOOR_BLOCK, with D =
    isqrt(n) for j = 1 and the base size L above. The d > D sharing q =
    n // d^j, those in (x_(q+1), x_q] cut at D, weigh W(q) - W(q + 1) with
    W = M (or M_odd) at x_q = iroot(n // q, j) and M(D) past the last q, so
    no table up to n^(1/j) is built: about 2 sqrt(n) terms for j = 1 and
    n^(2/(2j+1)) above.

    The sum counts k-tuples, odd pairs or j-free m in [1, n]^k, so it lies in
    [0, n^k]; when n^k < 2^64 it equals its residue mod 2^64, the sum of the
    terms' wrapping uint64 dots. Otherwise the dots run over Python ints.
    """
    L = _table_size(n, j)
    D = isqrt(n) if j == 1 else L
    i = np.arange(1, n // (D + 1) ** j + 2, dtype=np.int64)
    mertens = _mertens_at_quotients(n, L, j)
    W = _odd_mertens(mertens, n, i) if odd else mertens(i)
    lanes = np.uint64 if n**k < _MOD else object

    def dot(a: np.ndarray, q: np.ndarray) -> int:
        q = (q + 1) // 2 if odd else q
        return int(np.dot(a.astype(lanes), _power(q.astype(lanes), k)))

    keep = np.flatnonzero(W[:-1] - W[1:])
    total = dot(W[keep] - W[keep + 1], keep + 1)
    mu = shared_tables(D).mu
    for lo in range(1, D + 1, _FLOOR_BLOCK):
        d = np.flatnonzero(mu[lo : min(lo + _FLOOR_BLOCK, D + 1)]) + lo
        d = d[d % 2 == 1] if odd else d
        # d^j <= n, so below 2^64 the quotients are exact in uint64 lanes
        total += dot(mu[d], n // _power(d.astype(np.uint64 if n < _MOD else object), j))
    return total % _MOD if lanes is np.uint64 else total


def totient_sum(n: int) -> int:
    """Phi(n) = sum of phi(k) for k = 1..n, exactly.

    Sums a table for small n and runs the sublinear recurrence from a base
    table of about n^(2/3) above, which handles n far beyond any table.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    return _totient_at(n, _table_size(n))


def coprime_ordered_count_mobius(n: int) -> int:
    """#{(i, k) in [1,n]^2 : gcd(i, k) = 1} via sum of mu(d) * floor(n/d)^2.

    Reads the Mertens function at quotient points only, so it runs at every
    n whose base table (about n^(2/3)) fits under the configured sieve cap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _mobius_sum(n, 2)


def _pair_numerator(n: int) -> int:
    """|{(i, k): 1 <= i < k <= n, gcd = 1}| = Phi(n) - 1, cross-checked."""
    if n <= 1:
        return 0
    num = totient_sum(n) - 1
    ordered = coprime_ordered_count_mobius(n)
    if ordered != 2 * num + 1:
        raise AssertionError(
            f"mobius/totient cross-check failed at n={n}: {ordered} != {2 * num + 1}"
        )
    return num


def coprime_pair_count(n: int) -> DensityResult:
    """Exact count of unordered coprime pairs i < k <= n over all pairs."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ref = constants.reference_constant("pair").value
    return _result("pair", n, _pair_numerator(n), n * (n - 1) // 2, ref)


def gcd_equal_count(n: int, t: int) -> DensityResult:
    """Exact count of pairs i < k <= n with gcd(i, k) = t.

    Scaling (i, k) -> (i/t, k/t) is a bijection onto coprime pairs below
    floor(n/t), so the numerator reuses the pair counter.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    ref = constants.reference_constant("gcd_eq", t=t).value
    return _result("gcd_eq", n, _pair_numerator(n // t), n * (n - 1) // 2, ref)


def ktuple_coprime_count(n: int, k: int) -> DensityResult:
    """Exact count of ordered k-tuples from [1,n]^k with overall gcd 1."""
    if not 2 <= k <= 10:
        raise ValueError(f"k must be in [2, 10], got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ref = constants.reference_constant("ktuple", k=k).value
    return _result("ktuple", n, _mobius_sum(n, k), n**k, ref)


def pairwise_coprime_triple_count(n: int) -> DensityResult:
    """Exact count of ordered triples from [1,n]^3 that are pairwise coprime.

    Full enumeration, expressed as sum over (b, c) of G[b,c] * (G^2)[b,c]
    with G the 0/1 coprimality matrix. Every partial sum, in the float matmul
    and in the final sum, is a nonnegative integer at most n^3 < 2^53, so
    each float addition is exact: no summation order (BLAS blocking or
    thread count) can change the count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > TRIPLE_BRUTE_BOUND:
        raise ResourceLimitError(
            f"exact pairwise-triple counting is brute force and capped at "
            f"n = {TRIPLE_BRUTE_BOUND}; use the Monte Carlo estimator for n = {n}"
        )
    ref = constants.reference_constant("triple3").value
    r = np.arange(1, n + 1, dtype=np.int64)
    g = (np.gcd.outer(r, r) == 1).astype(np.float64)
    num = int(round(float(np.sum(g * (g @ g)))))
    return _result("triple3", n, num, n**3, ref)


def odd_coprime_pair_count(n: int) -> DensityResult:
    """Exact count of coprime pairs of odd numbers i < k <= n.

    Ordered coprime odd pairs are sum over odd squarefree d of
    mu(d) * (#odd multiples of d up to n)^2; the only diagonal pair is (1,1).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    ref = constants.reference_constant("odd_pair").value
    ordered = _mobius_sum(n, 2, odd=True)
    m = (n + 1) // 2
    return _result("odd_pair", n, (ordered - 1) // 2, m * (m - 1) // 2, ref)


def kfree_count(n: int, j: int = 2) -> DensityResult:
    """Exact count of m <= n divisible by no j-th power of a prime: the
    Möbius sum of n // d^j, from a base table of about n^(2/(2j+1)) entries."""
    if not 2 <= j <= 16:
        raise ValueError(f"j must be in [2, 16], got {j}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ref = constants.reference_constant("kfree", j=j).value
    kind = "squarefree" if j == 2 else "kfree"
    return _result(kind, n, _mobius_sum(n, 1, j=j), n, ref)


def squarefree_count(n: int) -> DensityResult:
    """Exact count of squarefree m <= n (kfree with j = 2)."""
    return kfree_count(n, 2)


def visible_points_in_disk(radius: int) -> DensityResult:
    """Count lattice points visible from the origin in the disk of the given
    radius R, over all nonzero lattice points there.

    Visibility of (x, y) means gcd(|x|, |y|) = 1 with gcd(a, 0) = a, so the
    only visible axis points are the four units, and the quadrants are
    symmetric. With Y(x) = isqrt(R^2 - x^2) the height of row x, the
    quadrant x, y >= 1 holds sum of Y(x) points, and Möbius inversion over
    d = gcd(x, y) counts its visible ones as the sum over d <= R of
    mu(d) * sum over x <= R/d of floor(Y(d*x) / d) (Apostol, Introduction
    to Analytic Number Theory, 3.8).

    Every Y is one float64 sqrt. v = R^2 - x^2 <= 1e14 < 2^52 is exact as
    a float. With k = isqrt(v), v <= (k+1)^2 - 1 puts sqrt(v) in [k, k+1)
    at least 1/(2(k+1)) below k+1, and rounding moves it by at most
    2^-53 * (k+1), which is less as (k+1)^2 < 2^52; so it floors to k.
    The (d, x) lanes of squarefree d, about R ln R of them, run in blocks
    of _FLOOR_BLOCK, one int64 dot each.

    Y, the squarefree d and the lane ends are int32, and Y and d are filled
    a block at a time, so no other array spans the disk. Y and d are at most
    R <= 1e7, and the lane total, the sum over squarefree d <= R of R // d,
    is at most R (1 + ln R) < 1.8e8 < 2^31.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if radius > VISIBLE_MAX:
        raise ResourceLimitError(f"disk scan capped at radius {VISIBLE_MAX:.0e}, got {radius}")
    ref = constants.reference_constant("visible").value
    mu = shared_tables(radius).mu[: radius + 1]
    Y = np.empty(radius + 1, dtype=np.int32)
    d = np.empty(np.count_nonzero(mu), dtype=np.int32)  # squarefree d; mu[0] = 0
    nd = 0
    for lo in range(0, radius + 1, _FLOOR_BLOCK):
        x = np.arange(lo, min(lo + _FLOOR_BLOCK, radius + 1), dtype=np.float64)
        Y[lo : lo + len(x)] = np.sqrt(np.subtract(radius * radius, np.square(x, out=x), out=x), out=x)
        sf = np.flatnonzero(mu[lo : lo + len(x)])
        d[nd : nd + len(sf)] = sf + lo
        nd += len(sf)
    ends = radius // d
    np.cumsum(ends, out=ends)  # lanes of d[:i + 1]
    total, quadrant = int(ends[-1]), 0
    for lo in range(0, total, _FLOOR_BLOCK):
        hi = min(lo + _FLOOR_BLOCK, total)
        # int32 keys: a Python int key makes searchsorted copy ends to int64
        lo32, hi32 = np.int32(lo), np.int32(hi)
        i = slice(np.searchsorted(ends, lo32, side="right"), np.searchsorted(ends, hi32, side="left") + 1)
        di = d[i].astype(np.int64)
        starts = ends[i] - radius // di
        runs = np.minimum(ends[i], hi) - np.maximum(starts, lo)
        dd = np.repeat(di, runs)
        xs = np.arange(lo + 1, hi + 1) - np.repeat(starts, runs)
        quadrant += int(np.dot(np.repeat(mu[di], runs), Y[dd * xs] // dd))
    num = 4 + 4 * quadrant
    den = 4 * radius + 4 * int(Y[1:].sum(dtype=np.int64))
    return _result("visible", radius, num, den, ref)


def prime_density(x: int) -> DensityResult:
    """pi(x)/x as an exact ratio; the reference density is zero.

    Legendre's recurrence, the core of the Meissel-Lehmer method (Lagarias,
    Miller & Odlyzko, Math. Comp. 44, 1985), over V: x // k for k <= s =
    isqrt(x), then every v < x // s, descending. S(v) = v - 1 at first; each
    prime p <= s in turn takes S(v // p) - S(p - 1), read before the update,
    off every v >= p^2, leaving S(v) = pi(v). x // (kp) sits at index kp - 1
    if kp <= s; every other v // p, which is below x // s, at len(V) - v // p.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > PRIME_DENSITY_MAX:
        raise ResourceLimitError(f"prime counting capped at x = {PRIME_DENSITY_MAX:.0e}, got {x}")
    ref = constants.reference_constant("prime_density").value
    s, xs = isqrt(x), x // isqrt(x)
    V = np.concatenate([x // np.arange(1, s + 1, dtype=np.int64), np.arange(xs - 1, 0, -1)])
    S, L = V - 1, len(V)
    for p in primes_up_to(s).tolist():
        m = min(s, x // (p * p)) + max(0, xs - p * p)  # the v >= p^2
        idx = L - V[:m] // p
        idx[: s // p] = np.arange(p - 1, s // p * p, p)
        S[:m] -= S[idx] - S[L - p + 1]
    return _result("prime_density", x, int(S[0]), x, ref)


# ---------------------------------------------------------------------------
# gcd(n, floor(f(n))) densities
# ---------------------------------------------------------------------------


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0, exactly.

    Integer Newton from r >= x^(1/k) decreases strictly while r exceeds the
    floor root and never drops below it (AM-GM), so it stops there.
    """
    if x < 0 or k < 1:
        raise ValueError(f"need x >= 0 and k >= 1, got x={x}, k={k}")
    if k == 1:
        return x
    if x.bit_length() <= k:  # x < 2^k, root 0 or 1; also spares Newton a huge r^(k-1)
        return min(x, 1)
    r = 1 << -(-x.bit_length() // k)
    while (nr := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = nr
    return r


@dataclass(frozen=True)
class FunctionSpec:
    """A growth function f for the gcd(m, floor(f(m))) experiment.

    floor(f(m)) is the largest r >= 0 with B*r^q <= A*m^p, and label names f
    in records: sqrt(2)*m is (2, 2, 1, 2), (a/b)*m with a/b > 0 is
    (a, 1, b, 1) and m^(p/q) with p/q > 0 not an integer is (1, p, 1, q).
    """

    A: int
    p: int
    B: int
    q: int
    label: str

    @staticmethod
    def sqrt2_times_n() -> "FunctionSpec":
        return FunctionSpec(2, 2, 1, 2, "sqrt2*n")

    @staticmethod
    def alpha_times_n(alpha) -> "FunctionSpec":
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("alpha_times_n needs alpha > 0")
        return FunctionSpec(alpha.numerator, 1, alpha.denominator, 1, f"{alpha}*n")

    @staticmethod
    def n_pow_c(c) -> "FunctionSpec":
        c = Fraction(c)
        if c <= 0 or c.denominator == 1:
            raise ValueError("n_pow_c needs a non-integer rational c > 0")
        return FunctionSpec(1, c.numerator, 1, c.denominator, f"n^{c}")


def _floor_bits(spec: FunctionSpec, m: int) -> int:
    """About the bits of A*m^p, which floor_f refuses past 10^6."""
    bits = spec.p * m.bit_length()
    if bits > 1_000_000:
        raise OverflowError(f"f = {spec.label} at a {m.bit_length()}-bit m is too large to evaluate")
    return bits


def floor_f(spec: FunctionSpec, m: int) -> int:
    """floor(f(m)) for a single m >= 1: iroot(A*m^p // B, q) in exact integers,
    by math.isqrt for q = 2 (about 24 times faster than Newton at 48,000 bits)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _floor_bits(spec, m)
    x = spec.A * m**spec.p // spec.B
    return isqrt(x) if spec.q == 2 else iroot(x, spec.q)


def _floor_f_us(bits: int) -> float:
    """Microseconds of one floor_f at a bits-bit A*m^p (2 vCPUs), an upper fit
    from 100 to 150,000 bits: a fixed cost, then the root's long divisions,
    quadratic in bits."""
    return 2 + bits / 250 + (bits / 400) ** 2


def _unproven_lanes(n: int, A: int, p: int, B: int, q: int) -> int:
    """How many m <= n _floor_lanes leaves unproven for certain: all of them
    when max(p, q) + 1 > 1025, else those with r = floor(f(m)) >= 2^52,
    that is every m from the least m0 with A*m0^p >= B*2^(52q) on."""
    if max(p, q) + 1 > 1025:
        return n
    if A == 0:
        return 0
    m0 = iroot(-(-(B << 52 * q) // A) - 1, p) + 1
    return max(0, n - m0 + 1)


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x^e for e >= 1 by left-to-right squaring (e - 1 multiplies' rounding)."""
    out = x
    for bit in bin(e)[3:]:
        out = out * out * x if bit == "1" else out * out
    return out


def _floor_lanes(A: int, p: int, B: int, q: int, m: np.ndarray):
    """(r, proven) for int64 lanes m >= 1: where proven, r is the largest
    r >= 0 with B*r^q <= A*m^p.

    A float64 estimate only proposes r. A lane is proven when x = A*m^p,
    y = B*r^q and y' = B*(r+1)^q satisfy x >= y and x < y', with m, r < 2^52
    so that every operand is an exact float. Let u = 2^-53, k = max(p, q) + 1,
    g = k*u/(1 - k*u) and c = 4*k*u (exact). X = fl(A)*m^p and Y = fl(B)*r^q
    take at most k correctly rounded steps (int-to-float conversion and
    _power's multiplies) on operands that are 0 or >= 1, so while finite,
    |X - x| <= g*x and |Y - y| <= g*y (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemmas 3.1, 3.3). With d = fl(X - Y) and
    t = fl(c*fl(X + Y)):

    - d > t gives X - Y >= d/(1+u) > c*(X+Y)*(1-u)^2/(1+u) >= 2*k*u*(X+Y)
      >= g/(1-g)*(X+Y) >= |X-x| + |Y-y| (as k*u <= 1/4), so x > y; d < -t
      gives x < y alike.
    - Otherwise |X - Y| <= t/(1-u) and g/(1-g)*(X+Y) <= t/(2*(1-u)^2), so
      |x - y| < 1.6*t < 2^62 where t <= 2^61; there x - y is exactly the
      wrapping uint64 difference of the products, viewed as int64 (ties too).

    Non-finite products fail both. Lanes with r >= 2^52 or a wrong estimate
    stay unproven, as do all lanes when k > 1025 (products overflow).
    """
    k = max(p, q) + 1
    if k > 1025:
        return np.zeros_like(m), np.zeros(m.shape, dtype=bool)
    c = k * 2.0**-51
    fA, fB = (float(v) if v.bit_length() < 1024 else np.inf for v in (A, B))
    with np.errstate(over="ignore", invalid="ignore"):
        mf = m.astype(np.float64)
        X = fA * _power(mf, p)

        def signs(sf, s):
            """(x >= B*s^q, x < B*s^q), each where proven; s as float and int64."""
            Y = fB * _power(sf, q)
            d, t = X - Y, c * (X + Y)
            ge, lt = d > t, d < -t
            i = np.flatnonzero((np.abs(d) <= t) & (t <= 2.0**61))  # residue tier
            diff = np.uint64(A % 2**64) * _power(m[i].view(np.uint64), p)
            diff = (diff - np.uint64(B % 2**64) * _power(s[i].view(np.uint64), q)).view(np.int64)
            ge[i], lt[i] = diff >= 0, diff < 0
            return ge, lt

        rf = np.fmin(np.floor((X / fB) ** (1 / q)), 2.0**52)  # any libm power: only a proposal
        r = rf.astype(np.int64)
        proven = (np.maximum(rf, mf) < 2.0**52) & signs(rf, r)[0] & signs(rf + 1, r + 1)[1]
    return r, proven


def f_gcd_density(n: int, spec: FunctionSpec) -> DensityResult:
    """Exact density of m <= n with gcd(m, floor(f(m))) = 1.

    floor(f(m)) = 0 pairs as gcd(m, 0) = m, so only m = 1 counts there.
    Lanes that _floor_lanes leaves unproven are counted with floor_f. A count
    whose certain floor_f lanes would pass FGCD_SLOW_BUDGET_US is refused
    before any block runs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > FGCD_MAX:
        raise ResourceLimitError(f"fgcd counting capped at n = {FGCD_MAX:.0e}, got {n}")
    bits = _floor_bits(spec, n)
    A, p, B, q = spec.A, spec.p, spec.B, spec.q
    if q == 1:  # alpha = A/B: gcd(m, k*m + t) = gcd(m, t), so A mod B counts alike
        A %= B
    slow = _unproven_lanes(n, A, p, B, q)
    slow_us = slow * _floor_f_us(bits)
    if slow_us > FGCD_SLOW_BUDGET_US:
        raise ResourceLimitError(
            f"fgcd with f = {spec.label} at n = {n} leaves {slow} lanes to exact roots,"
            f" about {slow_us / 1e6:.0f} s against a budget of {FGCD_SLOW_BUDGET_US / 1e6:.0f} s"
        )
    ref = constants.reference_constant("fgcd").value
    num = 0
    for lo in range(1, n + 1, _FLOOR_BLOCK):
        m = np.arange(lo, min(lo + _FLOOR_BLOCK, n + 1), dtype=np.int64)
        r, proven = _floor_lanes(A, p, B, q, m)
        num += int(np.count_nonzero((gcd_lanes(m, r) == 1) & proven))
        num += sum(gcd(x, floor_f(spec, x)) == 1 for x in m[~proven].tolist())
    return _result("fgcd", n, num, n, ref)
