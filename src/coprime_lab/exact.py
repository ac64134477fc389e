"""Exact finite-range coprimality counts.

Every operation returns a :class:`DensityResult` whose numerator and
denominator are exact integers (Python ints never wrap, a count below
2^64 is its wrapping uint64 residue, int64 sums stay in proven bounds,
summatory recurrences run in uint64 residues lifted to exact integers,
the pairwise-triple count multiplies float32 row blocks whose every entry
is an integer below 2^24 and sums them below 2^53, and fgcd floors are
float estimates proven lane by lane or redone in integers). The float
``value`` is the correctly rounded quotient.

Each operation first runs its row of :mod:`coprime_lab.limits`, which holds
the argument ranges, caps and the sieve-table need, so a refusal comes
before any table or lane exists.
"""

from collections import namedtuple
from math import gcd, isqrt, pi

import numpy as np

from . import constants
from .kernels import gcd_lanes
from .limits import (
    _WRAP,
    DENSE_BASE_MAX,
    FunctionSpec,
    _floor_bits,
    _reduced,
    check,
    iroot,
    sieve_cap,
    table_need,
)
from .sieve import primes_up_to, shared_tables, sieve_blocks

#: Rows of the coprimality matrix per gcd block of the triple count, and
#: rows and columns per float32 product block: a fresh CLI process peaks at
#: about 32.5 MB at n = 1000 and 36.6 MB at n = 2000, and the count takes 19
#: and 112 ms in process on one BLAS thread (2 vCPUs).
_TRIPLE_ROWS = 64
_TRIPLE_BLOCK = 128

#: Lanes per block of the vectorised sums (the Möbius sums' term-by-term
#: part, visible, fgcd), which bounds their working memory at any size.
_FLOOR_BLOCK = 1 << 13


class DensityResult(namedtuple("DensityResult", "kind n numerator denominator value reference abs_gap",
                               defaults=(None, None))):
    """An exact count numerator/denominator plus its float value.

    ``reference`` is the limiting constant for the experiment (when one
    exists) and ``abs_gap`` the distance of ``value`` from it; both are
    None otherwise.
    """

    __slots__ = ()


def _result(kind, n, num, den, reference=None):
    if not 0 <= num <= den:
        raise AssertionError(f"count invariant violated: {num}/{den} for {kind}")
    value = num / den
    gap = abs(value - reference) if reference is not None else None
    return DensityResult(kind, n, num, den, value, reference, gap)


# ---------------------------------------------------------------------------
# Summatory functions at the quotient points floor(n/k)
# ---------------------------------------------------------------------------

def _base_table(n: int, j: int = 1):
    """(L, tables): the shared table, fetched once per route, and the base
    size L the route reads: table_need(n, j), or the table's whole limit
    when larger, at most iroot(n, j).

    For j = 1 the table need only reach max(isqrt(n) + 2, min(L,
    DENSE_BASE_MAX)): past sqrt(n) the recurrence reads its base at the
    points n // k only, and _tails streams those above the table. A base
    past the sieve cap is refused before any table, as its table would be.
    """
    need = table_need(n, j)
    dense = need if j > 1 else min(need, max(isqrt(n) + 2, DENSE_BASE_MAX))
    if dense < need:
        sieve_cap(need)
    tables = shared_tables(dense)
    return min(iroot(n, j), max(need, tables.limit)), tables


def _tails(n: int, L: int, tables, *sums: str) -> list:
    """For each prefix sum of tables named in sums ("phi_sum", "mu_sum"),
    its values at x_k = n // k for k = K + 1..isqrt(n), K = n // (L + 1),
    as uint64 residues: what the j = 1 recurrence reads of a base [1, L]
    past sqrt(n). Empty, with no array built, when the table holds the
    whole base.

    The x_k up to the table's limit D are gathered from it. Those above are
    summed from sieve_blocks over (D, x_(K+1)], carried from block to block
    and kept at the points only, so no array spans (D, L]. Phi(L) < 2^63 and
    |M(L)| <= L, so the int64 sums are exact.
    """
    D = tables.limit
    if L <= D:
        return [()] * len(sums)
    x = n // np.arange(isqrt(n), n // (L + 1), -1, dtype=np.int64)  # ascending
    c = int(np.searchsorted(x, D, side="right"))  # x[:c] <= D
    tails, totals = [], []
    for name in sums:
        prefix = getattr(tables, name)
        tails.append(np.empty(len(x), dtype=np.int64))
        tails[-1][:c] = prefix[x[:c]]
        totals.append(int(prefix[D]))
    for start, mu, phi in sieve_blocks(D + 1, int(x[-1]) + 1):
        a, b = c + np.searchsorted(x[c:], (start, start + len(mu)))
        block = {"mu_sum": mu, "phi_sum": phi}
        for i, name in enumerate(sums):
            totals[i] = _sums_to(block[name], x[a:b] + 1 - start, totals[i], tails[i][a:b])
    return [tail[::-1].view(np.uint64) for tail in tails]


def _sums_to(values: np.ndarray, ends: np.ndarray, total: int, out: np.ndarray) -> int:
    """out = total + the sums of values[:e] for ascending ends e in [1,
    len(values)], in int64 from one pass per segment; returns total + the
    sum of all values."""
    if len(ends) == 0:
        return total + int(values.sum(dtype=np.int64))
    rest = int(values[ends[-1] :].sum(dtype=np.int64))
    np.add.reduceat(values, np.r_[0, ends[:-1]], dtype=np.int64, out=out)
    out[-1] -= rest
    np.cumsum(out, out=out)
    out += total
    return int(out[-1]) + rest


def _lift(residue: int, center: int) -> int:
    """The integer congruent to residue mod 2^64 nearest center: the exact
    value whenever that lies within 2^63 of center."""
    half = _WRAP >> 1
    return center + (residue - center + half) % _WRAP - half


def _quotient_values(n: int, L: int, prefix: np.ndarray, G, j: int = 1, tail=()) -> np.ndarray:
    """big[k] = F(x_k) mod 2^64 at x_k = iroot(n // k, j) for k = 1..S; big[0]
    is unused. The x_k > L, k = 1..K = n // (L + 1)^j, are computed; tail
    gives F(x_k) for k = K + 1..S = K + len(tail), and is empty for j > 1.

    F satisfies F(m) = G(m) - sum of F(m // d) over d = 2..m, and prefix is
    a table of F(m) as uint64 residues or exact int16 values, with L >=
    isqrt(x_1) (Deleglise & Rivat, Experimental Mathematics 5, 1996): for
    m = 0..L without a tail, and for m = 0..isqrt(n) + 1 with a tail to S =
    isqrt(n), which then holds every base value read above sqrt(n). As
    x_k // d = x_(k*d^j) (Pawlewicz, "Counting square-free numbers", 2011),
    the points are filled from k = K up: with s = isqrt(m), each d <= s reads
    m // d from big[k*d^j] while k*d^j <= S and from prefix otherwise; the
    d > s share q = m // d <= m // (s + 1) in runs of m // q - m // (q + 1).
    uint64 wraps mod 2^64 and the recurrence is integer-linear, so the
    residues are exact at any n. An int16 prefix sums exactly in int64
    (numpy sums it in int64, and at most sqrt(n) values below 2^15 are
    added), and its head up to isqrt(x_1) + 1 is cast to wrapping uint64
    residues once for the dots (a uint64-int16 dot would run in float64).
    """
    K = n // (L + 1) ** j
    S = K + len(tail)
    big = np.zeros(S + 1, dtype=np.uint64)
    big[K + 1 :] = tail
    if K == 0:
        return big
    ar = np.arange(isqrt(iroot(n, j)) + 3, dtype=np.int64)
    arj = ar[: iroot(S, j) + 2] ** j
    head = prefix[: len(ar) - 1].astype(np.uint64, copy=False)
    for k in range(K, 0, -1):
        m = iroot(n // k, j)
        s = isqrt(m)
        t = min(s, iroot(S // k, j))
        quo = m // ar[1 : m // (s + 1) + 2]  # m // q for q = 1..Q+1
        runs = (quo[:-1] - quo[1:]).view(np.uint64)
        total = (
            G(m)
            - int(big[k * arj[2 : t + 1]].sum())
            - int(prefix[m // ar[t + 1 : s + 1]].sum())
            - int(np.dot(runs, head[1 : len(quo)]))
        )
        big[k] = total % _WRAP
    return big


def _totient_at(n: int, L: int, tables, tail=None) -> int:
    """Phi(n) from the base [1, L], read off tables and, past its limit, from
    tail (_tails' Phi, streamed here when None); L = n reads the prefix
    directly.

    Phi(m) = m(m+1)/2 - sum of Phi(m // d) over d >= 2. Its residue mod 2^64
    is lifted to the integer nearest 3n^2/pi^2, which is exact because
    |Phi(n) - 3n^2/pi^2| <= 2n(ln n + 2) lies far inside 2^63 for every n a
    base table under the sieve cap can reach.
    """
    prefix = tables.phi_sum.view(np.uint64)
    if n <= L:
        return int(prefix[n])
    if tail is None:
        (tail,) = _tails(n, L, tables, "phi_sum")
    big = _quotient_values(n, L, prefix, lambda m: m * (m + 1) // 2, tail=tail)
    return _lift(int(big[1]), int(3 * n * n / pi**2))


def _mertens_at_quotients(n: int, L: int, tables, j: int = 1, tail=None):
    """mertens with mertens(i) = M(iroot(n // i, j)) for int64 arrays i >= 1,
    from the base [1, L], read off tables and, for j = 1 past its limit,
    from tail (_tails' M, streamed here when None); for j > 1, M(L) past
    n // (L + 1)^j.

    M is the Mertens function, M(m) = 1 - sum of M(m // d) over d >= 2;
    |M(m)| <= m < 2^63, so its uint64 residues read as int64 are exact.
    """
    prefix = tables.mu_sum
    if j > 1:
        tail = ()
    elif tail is None:
        (tail,) = _tails(n, L, tables, "mu_sum")
    big = _quotient_values(n, L, prefix, lambda m: 1, j, tail).view(np.int64)
    S = len(big) - 1

    def mertens(i: np.ndarray) -> np.ndarray:
        low = prefix[np.minimum(n // i, tables.limit)] if j == 1 else prefix[L]
        return np.where(i <= S, big[np.minimum(i, S)], low)

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


def _mobius_sum(n: int, k: int, odd: bool = False, j: int = 1, base=None) -> int:
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
    terms' wrapping uint64 dots. Pairs and odd pairs (k = 2) take uint64
    dots at every n, and their residue is lifted (as in _totient_at) to the
    integer nearest c = 6n^2/pi^2, or 2n^2/pi^2 for odd pairs. That is exact:

    - With q = n // d = n/d - f, f in [0, 1), q^2 is within 2n/d + 1 of
      n^2/d^2; over odd d, (q + 1) // 2 = n/(2d) + t with |t| <= 1/2, so its
      square is within n/(2d) + 1/4 of n^2/(4d^2).
    - sum of mu(d)/d^2 over all d is 6/pi^2 and over odd d 8/pi^2; the terms
      past n weigh at most n^2 times the sum of 1/d^2 over d > n, which is
      below 1/n, and the sum of 1/d over d <= n is at most ln n + 1.
    - So pairs lie within 2n(ln n + 2) of c and odd pairs within
      (n/2)(ln n + 2): below 6e13 for every n whose base table (about
      n^(2/3)) fits under MAX_SIEVE_LIMIT, that is n <= 1e12. The float c
      is off by under 2^-50 c < 2^30 (c < 2^80), so the total is far
      inside 2^63.

    k >= 3 with n^k >= 2^64 dots over Python ints. base is (L, tables, the
    M tail of _tails), _base_table's with its tail when None.
    """
    L, tables, tail = base or (*_base_table(n, j), None)
    D = isqrt(n) if j == 1 else L
    i = np.arange(1, n // (D + 1) ** j + 2, dtype=np.int64)
    mertens = _mertens_at_quotients(n, L, tables, j, tail)
    W = _odd_mertens(mertens, n, i) if odd else mertens(i)
    lanes = np.uint64 if k == 2 or n**k < _WRAP else object

    def dot(a: np.ndarray, q: np.ndarray) -> int:
        q = (q + 1) // 2 if odd else q
        return int(np.dot(a.astype(lanes), _power(q.astype(lanes), k)))

    keep = np.flatnonzero(W[:-1] - W[1:])
    total = dot(W[keep] - W[keep + 1], keep + 1)
    mu = tables.mu
    for lo in range(1, D + 1, _FLOOR_BLOCK):
        d = np.flatnonzero(mu[lo : min(lo + _FLOOR_BLOCK, D + 1)]) + lo
        d = d[d % 2 == 1] if odd else d
        # d^j <= n, so below 2^64 the quotients are exact in uint64 lanes
        total += dot(mu[d], n // _power(d.astype(np.uint64 if n < _WRAP else object), j))
    if k == 2:
        return _lift(total, int((2 if odd else 6) * n * n / pi**2))
    return total % _WRAP if lanes is np.uint64 else total


def totient_sum(n: int, *, _base=None) -> int:
    """Phi(n) = sum of phi(k) for k = 1..n, exactly.

    Sums a table for small n and runs the sublinear recurrence from a base
    of about n^(2/3) above, which handles n far beyond any table. _base is
    (L, tables, the Phi tail of _tails) when the caller has streamed it.
    """
    check("totient_sum", n=n)
    if n == 0:
        return 0
    return _totient_at(n, *(_base or _base_table(n)))


def coprime_ordered_count_mobius(n: int, *, _base=None) -> int:
    """#{(i, k) in [1,n]^2 : gcd(i, k) = 1} via sum of mu(d) * floor(n/d)^2.

    Reads the Mertens function at quotient points only, so it runs at every
    n whose base (about n^(2/3)) fits under the configured sieve cap. _base
    is (L, tables, the M tail of _tails) when the caller has streamed it.
    """
    check("coprime_ordered_count_mobius", n=n)
    return _mobius_sum(n, 2, base=_base)


def _pair_numerator(n: int) -> int:
    """|{(i, k): 1 <= i < k <= n, gcd = 1}| = Phi(n) - 1, cross-checked
    against the Möbius count; both read one base, its tails from one stream."""
    if n <= 1:
        return 0
    L, tables = _base_table(n)
    phi_tail, mu_tail = _tails(n, L, tables, "phi_sum", "mu_sum")
    num = totient_sum(n, _base=(L, tables, phi_tail)) - 1
    ordered = coprime_ordered_count_mobius(n, _base=(L, tables, mu_tail))
    if ordered != 2 * num + 1:
        raise AssertionError(
            f"mobius/totient cross-check failed at n={n}: {ordered} != {2 * num + 1}"
        )
    return num


def coprime_pair_count(n: int) -> DensityResult:
    """Exact count of unordered coprime pairs i < k <= n over all pairs."""
    check("coprime_pair_count", n=n)
    ref = constants.reference_constant("pair").value
    return _result("pair", n, _pair_numerator(n), n * (n - 1) // 2, ref)


def gcd_equal_count(n: int, t: int) -> DensityResult:
    """Exact count of pairs i < k <= n with gcd(i, k) = t.

    Scaling (i, k) -> (i/t, k/t) is a bijection onto coprime pairs below
    floor(n/t), so the numerator reuses the pair counter.
    """
    check("gcd_equal_count", n=n, t=t)
    ref = constants.reference_constant("gcd_eq", t=t).value
    return _result("gcd_eq", n, _pair_numerator(n // t), n * (n - 1) // 2, ref)


def ktuple_coprime_count(n: int, k: int) -> DensityResult:
    """Exact count of ordered k-tuples from [1,n]^k with overall gcd 1."""
    check("ktuple_coprime_count", n=n, k=k)
    ref = constants.reference_constant("ktuple", k=k).value
    return _result("ktuple", n, _mobius_sum(n, k), n**k, ref)


def pairwise_coprime_triple_count(n: int) -> DensityResult:
    """Exact count of ordered triples from [1,n]^3 that are pairwise coprime.

    Full enumeration, expressed as sum over (b, c) of G[b,c] * (G^2)[b,c]
    with G the symmetric 0/1 coprimality matrix, built once as uint8 from
    kernels.gcd_lanes, _TRIPLE_ROWS rows at a time. The sum runs over
    square blocks of _TRIPLE_BLOCK rows and columns: (G^2)_bc = G_b @ G_c^T
    from float32 copies of the row blocks G_b and G_c, masked by G_bc. G and
    G^2 are symmetric, so only blocks c >= b are formed and those with c > b
    count twice. Each entry of G_b @ G_c^T, and every partial sum inside
    the float32 matmul, is an integer count of at most n <= 2000 < 2^24, so
    all are exact in float32 under any BLAS blocking or thread count. Each
    block is summed with a float64 accumulator, and each block sum, the
    total and every partial sum on the way is an integer at most
    n^3 < 2^53, so those additions are exact too: no summation order can
    change the count.
    """
    check("pairwise_coprime_triple_count", n=n)
    ref = constants.reference_constant("triple3").value
    r = np.arange(1, n + 1, dtype=np.int32)
    g = np.empty((n, n), dtype=np.uint8)
    for lo in range(0, n, _TRIPLE_ROWS):
        b = r[lo : lo + _TRIPLE_ROWS]
        g[lo : lo + len(b)] = (gcd_lanes(np.repeat(b, n), np.tile(r, len(b))) == 1).reshape(len(b), n)
    num = 0
    for lo in range(0, n, _TRIPLE_BLOCK):
        rows = slice(lo, lo + _TRIPLE_BLOCK)
        gb = g[rows].astype(np.float32)
        for c in range(lo, n, _TRIPLE_BLOCK):
            cols = slice(c, c + _TRIPLE_BLOCK)
            block = gb @ (gb if c == lo else g[cols].astype(np.float32)).T
            block *= g[rows, cols]
            num += (1 if c == lo else 2) * int(block.sum(dtype=np.float64))
    return _result("triple3", n, num, n**3, ref)


def odd_coprime_pair_count(n: int) -> DensityResult:
    """Exact count of coprime pairs of odd numbers i < k <= n.

    Ordered coprime odd pairs are sum over odd squarefree d of
    mu(d) * (#odd multiples of d up to n)^2; the only diagonal pair is (1,1).
    """
    check("odd_coprime_pair_count", n=n)
    ref = constants.reference_constant("odd_pair").value
    ordered = _mobius_sum(n, 2, odd=True)
    m = (n + 1) // 2
    return _result("odd_pair", n, (ordered - 1) // 2, m * (m - 1) // 2, ref)


def kfree_count(n: int, j: int = 2) -> DensityResult:
    """Exact count of m <= n divisible by no j-th power of a prime: the
    Möbius sum of n // d^j, from a base table of about n^(2/(2j+1)) entries."""
    check("kfree_count", n=n, j=j)
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
    check("visible_points_in_disk", radius=radius)
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
    check("prime_density", x=x)
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


def floor_f(spec: FunctionSpec, m: int) -> int:
    """floor(f(m)) for a single m >= 1: iroot(A*m^p // B, q) in exact integers,
    by math.isqrt for q = 2 (about 24 times faster than Newton at 48,000 bits)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _floor_bits(spec, m)
    x = spec.A * m**spec.p // spec.B
    return isqrt(x) if spec.q == 2 else iroot(x, spec.q)


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
    check("f_gcd_density", n=n, spec=spec)
    A, p, B, q = _reduced(spec)
    ref = constants.reference_constant("fgcd").value
    num = 0
    for lo in range(1, n + 1, _FLOOR_BLOCK):
        m = np.arange(lo, min(lo + _FLOOR_BLOCK, n + 1), dtype=np.int64)
        r, proven = _floor_lanes(A, p, B, q, m)
        num += int(np.count_nonzero((gcd_lanes(m, r) == 1) & proven))
        num += sum(gcd(x, floor_f(spec, x)) == 1 for x in m[~proven].tolist())
    return _result("fgcd", n, num, n, ref)
