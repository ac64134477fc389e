"""Seeded, reproducible Monte Carlo estimators with Wilson intervals.

Trials are split into fixed batches of 2^16; batch b draws from its own
splitmix64 stream seeded by mix(seed, b), and batch success counts are
combined by integer summation. Results are therefore identical for any
worker count, and re-running with the same seed reproduces successes
exactly on any platform.

Determinant trials need exact integer determinants. Each is a
division-free minor expansion, with no pivots, computed modulo 2^64 in
wrapping uint64 and modulo as many primes below 2^28 as it takes for the
moduli to exceed twice the Hadamard bound (none for dim <= 5 at entries
below 1000). Signed Garner digits rebuild the determinant in int64 on
every lane where it fits, and as a Python int on the rare lanes where it
does not. The pure-integer Bareiss routine below is the oracle: every stack
checks a lane against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: Fixed batch size for deterministic parallel aggregation.
BATCH_SIZE = 1 << 16

#: z for the default 95% Wilson interval.
Z95 = 1.959964

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_G = np.uint64(_GAMMA)
_M1 = np.uint64(_MIX1)
_M2 = np.uint64(_MIX2)
_S30, _S27, _S31 = (np.uint64(s) for s in (30, 27, 31))

#: Words per block of the in-place finalizer: two uint64 blocks stay in L2.
_WORD_BLOCK = 1 << 15

#: Largest m that RngStream.uniform_below accepts.
_DRAW_MAX = 1 << 62


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def batch_seed(seed: int, batch_index: int) -> int:
    """Stream seed for one batch: mix(seed + (b+1) * gamma)."""
    return mix64((seed + (batch_index + 1) * _GAMMA) & _MASK64)


class RngStream:
    """Counter-based splitmix64 stream of 64-bit words.

    Word i is the splitmix64 finalizer of seed + (i+1) * gamma, identical to
    the sequential reference implementation; blocks of any size can be
    produced vectorised without changing the sequence.
    """

    __slots__ = ("seed", "_idx")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._idx = 0

    def words(self, n: int) -> np.ndarray:
        z = np.arange(self._idx + 1, self._idx + n + 1, dtype=np.uint64)
        self._idx += n
        # the finalizer in place on cache-sized blocks of z, t holding each shift
        t = np.empty(min(n, _WORD_BLOCK), dtype=np.uint64)
        for lo in range(0, n, _WORD_BLOCK):
            v = z[lo : lo + _WORD_BLOCK]
            s = t[: len(v)]
            v *= _G
            v += np.uint64(self.seed)
            v ^= np.right_shift(v, _S30, out=s)
            v *= _M1
            v ^= np.right_shift(v, _S27, out=s)
            v *= _M2
            v ^= np.right_shift(v, _S31, out=s)
        return z

    def uniform_below(self, m: int, count: int) -> np.ndarray:
        """count uniform int64 values in [0, m), modulo-bias-free by rejection.

        Values of m up to 2^32 use both 32-bit halves of each word, low half
        first on every host, and filter and reduce them in 32 bits; larger m
        rejects whole words.
        """
        if m < 1 or m > _DRAW_MAX:
            raise ValueError(f"m must be in [1, 2^62], got {m}")
        if m == 1:
            return np.zeros(count, dtype=np.int64)
        halves = m <= 1 << 32
        lane = np.uint32 if halves else np.uint64
        lim = lane(((1 << (32 if halves else 64)) // m) * m - 1)
        mm = (np.uint32 if m < 1 << 32 else np.uint64)(m)  # 2^32 needs 64 bits
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            need = count - filled
            w = self.words((need + 1) // 2 + 4 if halves else need + 4)
            if halves:  # little-endian view: low half first, a copy only on big-endian hosts
                w = w.astype("<u8", copy=False).view("<u4")
            acc = w[w <= lim]
            take = min(len(acc), need)
            np.remainder(acc[:take], mm, out=out[filled : filled + take], casting="unsafe")
            filled += take
        return out

    def uniform_signed(self, half_width: int, count: int) -> np.ndarray:
        """count uniform int64 values in [-half_width, +half_width]."""
        vals = self.uniform_below(2 * half_width + 1, count)
        vals -= half_width
        return vals


@dataclass(frozen=True)
class McEstimate:
    """successes/trials with a 95% Wilson interval and the seed that made it."""

    kind: str
    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    params: dict


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the bounds are algebraically exact at the extremes; don't let float
    # rounding pull them inward
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _run_batches(trials, seed, batch_fn, threads):
    """Sum of batch_fn over the batches. Each has its own seed, so the sum
    does not depend on the workers; a pool starts a thread per submitted
    batch while none is idle, so they are at most the batches and the CPUs."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    nb = -(-trials // BATCH_SIZE)

    def one(b):
        cnt = BATCH_SIZE if b < nb - 1 else trials - BATCH_SIZE * (nb - 1)
        return batch_fn(RngStream(batch_seed(seed, b)), cnt)

    workers = min(threads, nb, os.cpu_count() or 1)
    if workers <= 1:
        return sum(one(b) for b in range(nb))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(one, range(nb)))


def _finish(kind, successes, trials, seed, params) -> McEstimate:
    lo, hi = wilson_interval(successes, trials)
    params = dict(params)
    params["generator"] = "splitmix64"
    params["batch_size"] = BATCH_SIZE
    return McEstimate(kind, successes, trials, successes / trials, lo, hi, seed, params)


# ---------------------------------------------------------------------------
# Integer samplers
# ---------------------------------------------------------------------------


def _check_range_max(range_max: int) -> None:
    if not 1 <= range_max <= _DRAW_MAX:
        raise ValueError(f"range_max must be in [1, 2^62], got {range_max}")


def estimate_coprime_pair(range_max: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample ordered pairs from [1, M]^2; success when gcd = 1."""
    _check_range_max(range_max)

    def batch(stream, cnt):
        i = stream.uniform_below(range_max, cnt)
        k = stream.uniform_below(range_max, cnt)
        i += 1
        k += 1
        # a pair with two even entries fails at once
        keep = (i | k) & 1 == 1
        return int(np.count_nonzero(np.gcd(i[keep], k[keep]) == 1))

    succ = _run_batches(trials, seed, batch, threads)
    return _finish("pair", succ, trials, seed, {"range_max": range_max})


def estimate_pairwise_triple(range_max: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample ordered triples from [1, M]^3; success when pairwise coprime."""
    _check_range_max(range_max)

    def batch(stream, cnt):
        a, b, c = (stream.uniform_below(range_max, cnt) for _ in range(3))
        a += 1
        b += 1
        c += 1
        # each test runs only on the triples that passed the ones before it;
        # a triple with two even entries fails at once
        keep = ((a & b) | (a & c) | (b & c)) & 1 == 1
        a, b, c = a[keep], b[keep], c[keep]
        keep = np.gcd(a, b) == 1
        a, b, c = a[keep], b[keep], c[keep]
        keep = np.gcd(a, c) == 1
        return int(np.count_nonzero(np.gcd(b[keep], c[keep]) == 1))

    succ = _run_batches(trials, seed, batch, threads)
    return _finish("triple3", succ, trials, seed, {"range_max": range_max})


# ---------------------------------------------------------------------------
# Gaussian-integer sampler
# ---------------------------------------------------------------------------


def gaussian_coprime_mask(zr, zi, wr, wi) -> np.ndarray:
    """True where z = a + bi and w = c + di are coprime in Z[i].

    As a lattice in Z^2, the ideal (z, w) is spanned by z, iz, w and iw,
    that is (a, b), (-b, a), (c, d) and (-d, c). Its index in Z[i] is the
    norm of gcd(z, w), and by the Smith normal form it equals the gcd of the
    2x2 minors of those four vectors (H. Cohen, A Course in Computational
    Algebraic Number Theory, 2.4). The six minors are a^2 + b^2, c^2 + d^2,
    ac + bd, ad - bc and the negatives of the last two, so z and w are
    coprime exactly when the gcd of the four is 1. The test drops ac + bd:
    N(z) * N(w) = (ac + bd)^2 + (ad - bc)^2, so a prime dividing the other
    three divides (ac + bd)^2 and hence ac + bd, and the gcd of three is 1
    exactly when the gcd of four is (its value may exceed the index). At
    |coordinate| <= 2^30, the sampler's cap, each term is at most 2^61 in
    magnitude and fits int64. A lane with both operands zero has gcd 0 and
    comes out False.
    """
    a, b, c, d = (v.astype(np.int64, copy=False) for v in (zr, zi, wr, wi))
    return np.gcd.reduce([a * a + b * b, c * c + d * d, a * d - b * c]) == 1


def estimate_gaussian_coprime(box_half_width: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample pairs of Gaussian integers from the centered square box.

    Coordinates are uniform in [-B, B]; a zero vector is redrawn. Success is
    coprimality in Z[i].
    """
    if box_half_width < 1:
        raise ValueError(f"box_half_width must be >= 1, got {box_half_width}")
    if box_half_width > 1 << 30:
        raise ValueError("box_half_width above 2^30 would overflow the gcd kernel")

    def draw_nonzero(stream, cnt):
        re = stream.uniform_signed(box_half_width, cnt)
        im = stream.uniform_signed(box_half_width, cnt)
        bad = np.flatnonzero((re == 0) & (im == 0))
        while bad.size:
            re[bad] = stream.uniform_signed(box_half_width, bad.size)
            im[bad] = stream.uniform_signed(box_half_width, bad.size)
            bad = bad[(re[bad] == 0) & (im[bad] == 0)]
        return re, im

    def batch(stream, cnt):
        zr, zi = draw_nonzero(stream, cnt)
        wr, wi = draw_nonzero(stream, cnt)
        return int(np.count_nonzero(gaussian_coprime_mask(zr, zi, wr, wi)))

    succ = _run_batches(trials, seed, batch, threads)
    return _finish("gaussian", succ, trials, seed, {"box_half_width": box_half_width})


# ---------------------------------------------------------------------------
# Determinant sampler
# ---------------------------------------------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every interior division is exact; row swaps handle zero pivots. Python
    integers keep the minors exact at any size.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    if n == 1:
        return a[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


#: Modulus of the wrapping uint64 residue, the first CRT modulus.
_WRAP = 1 << 64

#: The 24 largest primes below 2^28 (each checked by the test suite). With
#: 2^64 they cover 735 bits of determinant width; dim 8 at the widest
#: entries the sampler draws (below 2^62) needs 510.
_CRT_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313,
    268435291, 268435273, 268435243, 268435183, 268435171, 268435157,
    268435147, 268435133, 268435129, 268435121, 268435109, 268435091,
    268435067, 268435043, 268435039, 268435033, 268435019, 268435009,
)

#: Lanes per pass of the minor expansion, so a pass's minors stay in cache.
_DET_CHUNK = 1 << 14


def _crt_primes_for(dim: int, entry_max_abs: int) -> list[int]:
    # 2^64 times the product of the primes must exceed twice the Hadamard
    # bound (sqrt(n)*emax)^n; no prime at all when 2^64 alone does
    h = 2 * ((math.isqrt(dim) + 1) * max(entry_max_abs, 1)) ** dim
    prod = _WRAP
    out = []
    for p in _CRT_PRIMES:
        if prod > h:
            break
        out.append(p)
        prod *= p
    if prod <= h:
        raise OverflowError(
            f"determinant width for dim {dim}, entry bound {entry_max_abs} exceeds the CRT pool"
        )
    return out


@functools.lru_cache(maxsize=8)
def _minor_schedule(n: int) -> tuple:
    """Levels k = 2..n of the bottom-up expansion of an n x n determinant.

    Level k has one entry per k-subset S = {c_0 < c_1 < ...} of the columns,
    in itertools.combinations order: the terms (c_t, index of S minus c_t
    in level k - 1), so that the minor on the last k rows and columns S is
    sum_t (-1)^t a[n-k, c_t] * minor(S minus c_t). Level 1 is the last row.
    """
    levels = []
    prev = {(c,): c for c in range(n)}
    for k in range(2, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        levels.append(
            tuple(
                tuple((c, prev[tuple(d for d in cols if d != c)]) for c in cols)
                for cols in subsets
            )
        )
        prev = {cols: i for i, cols in enumerate(subsets)}
    return tuple(levels)


def _dets_mod_p(mats: np.ndarray, m: int) -> np.ndarray:
    """Determinants modulo m of a stack of int64 matrices, shape (L, n, n).

    m is 2^64 or a prime below 2^28. The determinant is a division-free
    minor expansion from the bottom row up: 2^n - 1 minors and n * 2^(n-1)
    multiplies per lane, with no pivot and no inverse, so every lane is
    exact. It runs on blocks of lanes transposed to (n, n, lanes), so each
    entry and minor is a contiguous vector.

    Modulo 2^64 the arithmetic is plain wrapping uint64, a ring
    homomorphism from Z, and the result is returned as its int64 view.

    Modulo p the entries are reduced to [0, p) and every minor to a signed
    residue r with |r| < p, so each product is below 2^56 and the <= 8
    signed terms of a minor x stay below 8p^2 < 2^59 in int64. x is reduced
    without division as x - q*p with q = rint(fl(fl(x) * fl(1/p))): as
    |x/p| < 8p < 2^31, the three roundings move x/p by less than
    2^-51 * 2^31 = 2^-20, so |x/p - q| < 1/2 + 2^-20 and |x - q*p| < p. The
    determinant comes back in [0, p).
    """
    lanes, n, _ = mats.shape
    wrap = m == _WRAP
    out = np.empty(lanes, dtype=np.uint64 if wrap else np.int64)
    inv = 1.0 / m
    for lo in range(0, lanes, _DET_CHUNK):
        a = mats[lo : lo + _DET_CHUNK].transpose(1, 2, 0)
        if wrap:
            a = np.ascontiguousarray(a).view(np.uint64)
        else:
            a = np.remainder(a, m, order="C")
        minors = a[n - 1]
        tmp = np.empty_like(minors[0])
        for k, level in enumerate(_minor_schedule(n), start=2):
            row = a[n - k]
            nxt = np.empty((len(level), len(tmp)), dtype=a.dtype)
            for acc, ((c, sub), *rest) in zip(nxt, level):
                np.multiply(row[c], minors[sub], out=acc)
                for t, (c, sub) in enumerate(rest):
                    np.multiply(row[c], minors[sub], out=tmp)
                    if t & 1:
                        acc += tmp
                    else:
                        acc -= tmp
            if not wrap:
                q = np.rint(nxt * inv).astype(np.int64)
                q *= m
                nxt -= q
            minors = nxt
        out[lo : lo + _DET_CHUNK] = minors[0]
    return out.view(np.int64) if wrap else out % m


def _exact_dets(mats: np.ndarray, primes: list[int]) -> tuple[np.ndarray, dict[int, int]]:
    """Exact determinants of a stack of int64 matrices, shape (L, n, n).

    Returns (low, wide). low is int64 and low[l] is det(mats[l]) on every
    lane whose determinant fits int64; wide maps each other lane to its
    determinant as a Python int.

    The determinant is rebuilt from its residues modulo 2^64 = m_0 and the
    primes m_1..m_k by Garner's mixed-radix digits in signed form:
    x = v_0 + sum_i v_i * R_i with R_i = m_0 ... m_(i-1), v_0 in
    [-2^63, 2^63) (the int64 view of the 2^64 residue) and v_i in
    (-p_i/2, p_i/2] for i >= 1. Since sum_i (p_i - 1) R_i telescopes to
    M - 2^64 with M = prod m_i, the largest such x is M/2 - 1 and the
    smallest -M/2: the digits cover [-M/2, M/2) once, one integer per
    residue class mod M. With primes from _crt_primes_for, M exceeds twice
    the Hadamard bound, so the determinant lies in that range and its
    digits are the ones computed here. Each digit is
    v_j = (r_j - sum_(i<j) v_i R_i) * R_j^-1 mod p_j, centred, with only
    inverses of constants. A determinant fits int64 exactly when its higher
    digits are all 0, and then it is v_0; only the other lanes become
    Python ints.

    Lane 0 and the first wide lane, if any, are recomputed with det_bareiss;
    a mismatch raises AssertionError.
    """
    low = _dets_mod_p(mats, _WRAP)
    radices = [1, _WRAP]  # R_0, R_1, ...
    digits = []  # v_1, v_2, ...
    for p in primes:
        # |v_i| < 2^27 and R_i mod p < 2^28: the sum stays below 2^60
        known = low % p
        for v, r in zip(digits, radices[1:]):
            known += v * (r % p)
        v = (_dets_mod_p(mats, p) - known) % p * pow(radices[-1] % p, -1, p) % p
        v[v > p // 2] -= p
        digits.append(v)
        radices.append(radices[-1] * p)
    wide = {}
    if digits:
        for l in np.flatnonzero(np.any(digits, axis=0)).tolist():
            wide[l] = int(low[l]) + sum(int(v[l]) * r for v, r in zip(digits, radices[1:]))
    for l in {0, next(iter(wide), 0)}:
        got = wide.get(l, int(low[l]))
        if got != det_bareiss(mats[l].tolist()):
            raise AssertionError(f"determinant kernel gives {got} on lane {l}, Bareiss disagrees")
    return low, wide


def estimate_det_coprime(
    dim: int,
    entry_max: int,
    trials: int,
    seed: int,
    threads: int = 1,
    symmetric_entries: bool = False,
) -> McEstimate:
    """Sample pairs of dim x dim integer matrices; success when their exact
    determinants are coprime (gcd(a, 0) = a, so a zero determinant only
    pairs with a unit).

    Entries are uniform in [0, entry_max), or [-(entry_max-1), entry_max-1]
    with symmetric_entries.
    """
    if not 1 <= dim <= 8:
        raise ValueError(f"dim must be in [1, 8], got {dim}")
    # symmetric entries draw below 2 * entry_max - 1
    top = _DRAW_MAX // 2 if symmetric_entries else _DRAW_MAX
    if not 2 <= entry_max <= top:
        bound = "2^61 with symmetric entries" if symmetric_entries else "2^62"
        raise ValueError(f"entry_max must be in [2, {bound}], got {entry_max}")
    emax_abs = entry_max - 1
    primes = _crt_primes_for(dim, emax_abs)

    def draw(stream, cnt):
        if symmetric_entries:
            flat = stream.uniform_signed(emax_abs, cnt * dim * dim)
        else:
            flat = stream.uniform_below(entry_max, cnt * dim * dim)
        return flat.reshape(cnt, dim, dim)

    def batch(stream, cnt):
        d1, w1 = _exact_dets(draw(stream, cnt), primes)
        d2, w2 = _exact_dets(draw(stream, cnt), primes)
        # np.gcd takes |x| in unsigned arithmetic, so a det of -2^63 is safe
        ok = np.gcd(d1, d2) == 1
        for l in w1.keys() | w2.keys():
            ok[l] = math.gcd(w1.get(l, int(d1[l])), w2.get(l, int(d2[l]))) == 1
        return int(np.count_nonzero(ok))

    succ = _run_batches(trials, seed, batch, threads)
    return _finish(
        "det",
        succ,
        trials,
        seed,
        {
            "dim": dim,
            "entry_max": entry_max,
            "symmetric_entries": symmetric_entries,
            "crt_primes": len(primes),
        },
    )
