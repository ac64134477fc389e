"""Seeded, reproducible Monte Carlo estimators with Wilson intervals.

Trials are split into fixed batches of 2^16; batch b draws from its own
splitmix64 stream seeded by mix(seed, b), and batch success counts are
combined by integer summation. Results are therefore identical for any
worker count, and re-running with the same seed reproduces successes
exactly on any platform.

One rule picks the lanes: RngStream.blocks(m, count, size), and
uniform_below, its one-block form, return int32 when m < 2^31 and int64
above, and every kernel computes on the lanes it gets. The pair and triple
gcds (of values up to range_max) first drop lanes with two entries even or
two divisible by 3, then run kernels.gcd_lanes on the whole batch: Euclid
with nearest-integer quotients, exact in float32 up to 2^23 and in float64
up to 2^52, at about 12 ns a lane at 1e6 and 35 ns at 1e9 against np.gcd's
65 and 95; larger range_max goes to np.gcd. The Gaussian gcd runs
gcd_lanes on its three terms, in int32 when every |coordinate| <=
2^15 - 1, as its terms are then at most 2 (2^15 - 1)^2 < 2^31, and in int64
above. The determinant gcd runs np.gcd.

Determinant trials need exact integer determinants. Each stack of
matrices goes from the draw to its determinants one block of _DET_BLOCK
lanes at a time, so no batch holds a whole stack. Each determinant is a
division-free minor expansion, with no pivots. Its levels up to k0, the
largest order whose minors fit int64 by Hadamard's bound at the block's
largest entry, run once in wrapping uint64; the levels above run once per
modulus. Modulo 2^64 they give the low part. The part above 2^64 comes
from nothing where 2^64 exceeds twice the Hadamard bound (dim <= 5 at
entries below 1000), from one float64 pass of the levels above k0 where
its rounding error is proven below 2^61 (every dim <= 8 at entries up to
about 3,000; the proof is in _exact_dets), and otherwise from residues
modulo as many primes below 2^28 as the Hadamard bound calls for, by
signed Garner digits. Determinants come back in int64 on every lane where
they fit, and as Python ints on the lanes where they do not. The
pure-integer Bareiss routine below is the oracle: every block checks a lane
against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .kernels import gcd_lanes

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

#: (i + 1) * gamma for the i-th word of a block, wrapping.
_RAMP = np.arange(1, _WORD_BLOCK + 1, dtype=np.uint64) * _G

#: Largest m that RngStream.blocks accepts.
_DRAW_MAX = 1 << 62

#: Largest trials per estimator, at most about a minute each on one thread
#: (2 vCPUs) at 0.05-0.07 us a trial for pairs (range_max 1e9) and triples
#: (1e6), 0.11 us for Gaussian pairs (box 1000) and 0.9-1.0 us for
#: determinant pairs (dim 6, entries below 1000). Costlier determinant routes
#: get fewer, by _det_trial_us.
TRIALS_MAX = {"pair": 5 * 10**8, "triple3": 5 * 10**8, "gaussian": 4 * 10**8, "det": 2 * 10**7}

#: Microseconds of determinant trials one estimate may take by _det_trial_us.
DET_BUDGET_US = 60 * 10**6


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
        """The next n words: the splitmix64 finalizer, in place on the counters,
        which are _RAMP added to seed + idx * gamma a _WORD_BLOCK at a time."""
        z = np.empty(n, dtype=np.uint64)
        for lo in range(0, n, _WORD_BLOCK):
            base = np.uint64((self.seed + (self._idx + lo) * _GAMMA) & _MASK64)
            np.add(_RAMP[: n - lo], base, out=z[lo : lo + _WORD_BLOCK])
        self._idx += n
        t = np.empty_like(z)  # each shift
        z ^= np.right_shift(z, _S30, out=t)
        z *= _M1
        z ^= np.right_shift(z, _S27, out=t)
        z *= _M2
        z ^= np.right_shift(z, _S31, out=t)
        return z

    def blocks(self, m: int, count: int, size: int):
        """count uniform values in [0, m), modulo-bias-free by rejection, size
        at a time: ceil(count / size) fresh arrays, one empty array when
        count is 0, in int32 lanes when m < 2^31 and int64 above.

        Values of m up to 2^32 use both 32-bit halves of each word, low half
        first on every host, and filter and reduce them in 32 bits; larger m
        rejects whole words. A round of need/2 + 4 words (need + 4 whole)
        goes through words() a _WORD_BLOCK at a time, straight into the
        blocks; its words past the last value taken are skipped unread. Each
        value is w - (w // m) m, written in place in its block (numpy divides
        by a scalar without a hardware divide). Run the generator to its end:
        the stream's counter passes the last round only after the last block.
        """
        if m < 1 or m > _DRAW_MAX:
            raise ValueError(f"m must be in [1, 2^62], got {m}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        dtype = np.int32 if m < 1 << 31 else np.int64
        if m == 1 or not count:  # nothing to draw
            yield from (np.zeros(min(size, count - lo), dtype) for lo in range(0, max(count, 1), size))
            return
        halves = m <= 1 << 32
        lane = np.uint32 if halves else np.uint64
        lim = lane(((1 << (32 if halves else 64)) // m) * m - 1)
        mm = (np.uint32 if m < 1 << 32 else np.uint64)(m)  # 2^32 needs 64 bits
        unsigned = np.uint32 if dtype is np.int32 else np.uint64  # the view each value is reduced in
        left = count  # values not yet drawn
        out, at = np.empty(min(size, left), dtype), 0
        while left:
            end = self._idx + ((left + 1) // 2 + 4 if halves else left + 4)
            while left and self._idx < end:
                w = self.words(min(end - self._idx, _WORD_BLOCK))
                if halves:  # little-endian view: low half first, a copy only on big-endian hosts
                    w = w.astype("<u8", copy=False).view("<u4")
                w = w[w <= lim][:left]  # the lanes taken; the block is freed
                while len(w):
                    v, w = w[: len(out) - at], w[len(out) - at :]
                    o = out[at : at + len(v)].view(unsigned)
                    np.floor_divide(v, mm, out=o)
                    o *= mm
                    np.subtract(v, o, out=o)
                    at += len(v)
                    left -= len(v)
                    if at == len(out):
                        yield out
                        out, at = np.empty(min(size, left), dtype), 0
            self._idx = end

    def uniform_below(self, m: int, count: int) -> np.ndarray:
        """The count values of blocks(m, count, ...) as one array."""
        (out,) = self.blocks(m, count, max(count, 1))
        return out

    def uniform_signed(self, half_width: int, count: int) -> np.ndarray:
        """count uniform values in [-half_width, +half_width], in uniform_below's lanes."""
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
    does not depend on the workers (at most the threads, batches and CPUs);
    the pool gets 64 batches per worker at a time, so memory stays flat."""
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
        step = 64 * workers
        return sum(sum(pool.map(one, range(lo, min(lo + step, nb)))) for lo in range(0, nb, step))


def _check_trials(kind: str, trials: int) -> None:
    if trials > TRIALS_MAX[kind]:
        raise ResourceLimitError(f"{kind} trials capped at {TRIALS_MAX[kind]:.0e}, got {trials}")


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


def _divisible_by_3(x: np.ndarray) -> np.ndarray:
    """True where 3 divides x, for x >= 0 in 32- or 64-bit lanes.

    3 is odd, so x -> x * 3^-1 mod 2^b is a bijection of [0, 2^b), and it
    maps each multiple 3j onto j <= (2^b - 1) / 3: x is a multiple of 3
    exactly when its image is at most (2^b - 1) / 3. For b = 32 that is
    x * 0xAAAAAAAB mod 2^32 <= 0x55555555.
    """
    bits = 8 * x.itemsize
    u = np.dtype(f"u{x.itemsize}").type
    return x.view(u) * u(((2 << bits) + 1) // 3) <= u(((1 << bits) - 1) // 3)


def _kept(keep: np.ndarray, *arrays: np.ndarray) -> list:
    """The lanes of each array where keep is True (one index list for all;
    a boolean-mask gather per array costs several times as much)."""
    ix = np.flatnonzero(keep)
    return [x.take(ix) for x in arrays]


def estimate_coprime_pair(range_max: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample ordered pairs from [1, M]^2; success when gcd = 1."""
    _check_range_max(range_max)
    _check_trials("pair", trials)

    def batch(stream, cnt):
        i = stream.uniform_below(range_max, cnt)
        k = stream.uniform_below(range_max, cnt)
        i += 1
        k += 1
        # a pair with a common factor 2 or 3 fails at once
        i, k = _kept(((i | k) & 1 == 1) & ~(_divisible_by_3(i) & _divisible_by_3(k)), i, k)
        return int(np.count_nonzero(gcd_lanes(i, k) == 1))

    succ = _run_batches(trials, seed, batch, threads)
    return _finish("pair", succ, trials, seed, {"range_max": range_max})


def estimate_pairwise_triple(range_max: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample ordered triples from [1, M]^3; success when pairwise coprime."""
    _check_range_max(range_max)
    _check_trials("triple3", trials)

    def batch(stream, cnt):
        a, b, c = (stream.uniform_below(range_max, cnt) for _ in range(3))
        a += 1
        b += 1
        c += 1
        # each test runs only on the triples that passed the ones before it;
        # a triple with two entries even, or two divisible by 3, fails at once
        ta, tb, tc = _divisible_by_3(a), _divisible_by_3(b), _divisible_by_3(c)
        keep = (((a & b) | (a & c) | (b & c)) & 1 == 1) & ~((ta & tb) | (ta & tc) | (tb & tc))
        a, b, c = _kept(keep, a, b, c)
        a, b, c = _kept(gcd_lanes(a, b) == 1, a, b, c)
        b, c = _kept(gcd_lanes(a, c) == 1, b, c)
        return int(np.count_nonzero(gcd_lanes(b, c) == 1))

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
    exactly when the gcd of four is (its value may exceed the index). A lane
    with both operands zero has gcd 0 and comes out False.

    With every |coordinate| <= B the three terms are at most 2 B^2 in
    magnitude: below 2^31 when B <= 2^15 - 1, where the gcd runs in int32
    lanes, and at most 2^61 at the sampler's cap B = 2^30, where it runs in
    int64. B is read off the lanes themselves.
    """
    a, b, c, d = (np.asarray(v) for v in (zr, zi, wr, wi))
    box = max(max(int(v.max(initial=0)), -int(v.min(initial=0))) for v in (a, b, c, d))
    lanes = np.int32 if box < 1 << 15 else np.int64
    a, b, c, d = (v.astype(lanes, copy=False) for v in (a, b, c, d))
    # gcd_lanes reads its bound off non-negative lanes
    return gcd_lanes(gcd_lanes(a * a + b * b, c * c + d * d), np.abs(a * d - b * c)) == 1


def estimate_gaussian_coprime(box_half_width: int, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Sample pairs of Gaussian integers from the centered square box.

    Coordinates are uniform in [-B, B]; a zero vector is redrawn. Success is
    coprimality in Z[i].
    """
    if box_half_width < 1:
        raise ValueError(f"box_half_width must be >= 1, got {box_half_width}")
    if box_half_width > 1 << 30:
        raise ValueError("box_half_width above 2^30 would overflow the gcd kernel")
    _check_trials("gaussian", trials)

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

#: The 16 largest primes below 2^28 (each checked by the test suite). With
#: 2^64 their product is just below 2^512, and twice the Hadamard bound at
#: the widest stacks the sampler draws (dim 8, entries below 2^62) is 2^509,
#: so those need all 16.
_CRT_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313,
    268435291, 268435273, 268435243, 268435183, 268435171, 268435157,
    268435147, 268435133, 268435129, 268435121,
)

#: Lanes per block of the minor expansion, drawn and expanded before the
#: next. A block makes about n 2^n numpy calls at dim n, so the call overhead
#: grows with the dim as the block's working set does. On one thread 2^12 was
#: the fastest of 2^11 to 2^14, or within 5% of it, at every dim from 3 to 8.
_DET_BLOCK = 1 << 12


def _crt_primes_for(dim: int, entry_max_abs: int) -> list[int]:
    """The fewest CRT primes whose product M with 2^64 exceeds twice the
    Hadamard bound (sqrt(dim) * e)^dim, e = entry_max_abs; none when 2^64
    alone does. The test is exact in integers: M^2 > 4 * dim^dim * e^(2 dim).
    """
    h = 4 * dim**dim * max(entry_max_abs, 1) ** (2 * dim)
    prod = _WRAP
    out = []
    for p in _CRT_PRIMES:
        if prod * prod > h:
            break
        out.append(p)
        prod *= p
    if prod * prod <= h:
        raise OverflowError(
            f"determinant width for dim {dim}, entry bound {entry_max_abs} exceeds the CRT pool"
        )
    return out


def _det_trial_us(dim: int, entry_max_abs: int, route: str, primes: int) -> float:
    """Microseconds of one determinant trial (two matrices) on one thread
    (2 vCPUs), an upper fit over dims 1-8 and entries from 10 to 2^62.

    The expansion's dim 2^(dim-1) multiplies per lane run once modulo 2^64;
    those of the levels above _exact_level run once more in float64 on that
    route, and at 1.5 times that cost per CRT prime. Lanes wider than int64
    add 4.5 + primes more as Python ints; they are the typical lane once
    dim! (e^2/3)^dim, about the mean square determinant at entries up to
    e = entry_max_abs, reaches 2^126.
    """
    e = entry_max_abs
    above = sum(k * math.comb(dim, k) for k in range(_exact_level(dim, e) + 1, dim + 1))
    passes = (route == "float64") + 1.5 * primes
    wide = math.factorial(dim) * (e * e) ** dim >= 3**dim << 126
    return 0.4 + 0.005 * ((dim << (dim - 1)) + above * passes) + wide * (4.5 + primes)


def _det_route(dim: int, entry_max_abs: int) -> tuple[str, list[int]]:
    """How _exact_dets rebuilds the high part of determinants whose entries
    are at most e = entry_max_abs in magnitude, and with which CRT primes.

    "none" when the 2^64 residue alone covers twice the Hadamard bound;
    else "float64" where a float64 pass is proven close enough, that is
    e <= 2^53 and gamma_c * dim! * e^dim < 2^61 with c = dim(dim+1)/2 - 1
    (see _exact_dets), tested exactly as c * dim! * e^dim < 2^61 (2^53 - c);
    else "crt" with the primes of _crt_primes_for.
    """
    primes = _crt_primes_for(dim, entry_max_abs)
    if not primes:
        return "none", []
    c = dim * (dim + 1) // 2 - 1
    e = entry_max_abs
    if e <= 1 << 53 and c * math.factorial(dim) * e**dim < (1 << 61) * ((1 << 53) - c):
        return "float64", []
    return "crt", primes


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


def _exact_level(n: int, e: int) -> int:
    """The largest k <= n with k^k e^(2k) < 2^126: by Hadamard's bound every
    minor of order k of a matrix with entries at most e in magnitude is then
    below (sqrt(k) e)^k < 2^63, and fits int64."""
    return max(k for k in range(1, n + 1) if k**k * e ** (2 * k) < 1 << 126)


def _expand(a: np.ndarray, minors: np.ndarray, k: int, top: int, reduce=None) -> np.ndarray:
    """Levels k + 1..top of the division-free minor expansion, from the
    minors of order k on the last k rows to those of order top, each level
    of shape (C(n, j), lanes) in the minors' dtype.

    a holds the entries transposed to (rows, n, lanes), in that dtype, so
    each entry and minor is a contiguous vector; level j reads row n - j, so
    a needs only its first n - k rows. Level 1 is the last row. Over levels
    2..n this is 2^n - 1 minors and n 2^(n-1) multiplies per lane, with no
    pivot and no inverse. reduce(x), if given, maps each new level to the
    one kept.
    """
    n = a.shape[1]
    tmp = np.empty_like(minors[0])
    for j in range(k + 1, top + 1):
        row = a[n - j]
        level = _minor_schedule(n)[j - 2]
        nxt = np.empty((len(level), len(tmp)), dtype=minors.dtype)
        for acc, ((c, sub), *rest) in zip(nxt, level):
            np.multiply(row[c], minors[sub], out=acc)
            for t, (c, sub) in enumerate(rest):
                np.multiply(row[c], minors[sub], out=tmp)
                if t & 1:
                    acc += tmp
                else:
                    acc -= tmp
        minors = nxt if reduce is None else reduce(nxt)
    return minors


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p) for int64 lanes x and 0 < p < 2^63, as x - (x // p) p:
    exact for every int64 (the product and difference wrap modulo 2^64, and
    the result lies in [0, p)), and numpy divides by a scalar without a
    hardware divide, about six times as fast as its %."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


def _dets_mod_p(a: np.ndarray, minors: np.ndarray, k: int, m: int) -> np.ndarray:
    """Determinants modulo m of the lanes of a, the entries transposed to
    (n, n, lanes) in uint64, from their minors of order k on the last k rows
    (uint64 whose int64 view is exact), by _expand; m is 2^64 or a prime
    below 2^28, and every lane is exact.

    Modulo 2^64 the arithmetic is wrapping uint64, a ring homomorphism from
    Z that either entry type casts into; the result is its int64 view.

    Modulo p every entry, order-k minor and new level of minors is reduced
    by _mod to [0, p): each product is below 2^56 and the <= 8 signed terms
    of a minor stay below 8p^2 < 2^59 in int64. The determinant comes back
    in [0, p).
    """
    n = a.shape[1]
    if m == _WRAP:
        return _expand(a, minors, k, n)[0].view(np.int64)
    mod = functools.partial(_mod, p=m)
    return _expand(mod(a[: n - k].view(np.int64)), mod(minors.view(np.int64)), k, n, mod)[0]


def _exact_dets(
    mats: np.ndarray, primes: list[int], route: str = "crt"
) -> tuple[np.ndarray, dict[int, int]]:
    """Exact determinants of a stack of int32 or int64 matrices, shape (L, n, n).

    Returns (low, wide). low is int64 and low[l] is det(mats[l]) on every
    lane whose determinant fits int64; wide maps each other lane to its
    determinant as a Python int. route and primes come from _det_route.

    The levels 2..k0 of the minor expansion run once, in wrapping uint64,
    where k0 = _exact_level(n, e) and e is the largest entry magnitude of
    mats: every minor of order k0 fits int64, so the int64 view of these is
    exact. Only the levels above k0 run once per modulus, from them; with no
    primes and no float64 pass k0 = n. Every route starts from r, the int64
    view of the determinant modulo 2^64, and writes det = r + sum_i v_i R_i
    with R_1 = 2^64: a determinant fits int64 exactly when every v_i is 0,
    and then it is r; only the other lanes become Python ints.

    Route "float64" (primes empty) runs the levels above k0 once more in
    float64, from fl of the order-k0 minors and with no reduction, giving f,
    and takes the one digit v_1 = rint((f - fl(r)) * 2^-64). A minor of
    order k is a length-k signed dot product of entries with minors of
    order k - 1, so by the standard bound (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1) each of its monomials
    carries at most c(k) = c(k-1) + k roundings, c(1) = 0, and a full
    float64 expansion is within gamma_c * per(|A|) of det with
    c = c(n) = n(n+1)/2 - 1, gamma_c = c u / (1 - c u) and u = 2^-53; the
    entries are exact in float64 as e <= 2^53. From the exact order-k0
    minors each monomial carries c' <= c roundings: fl of a minor scales all
    of its monomials by one 1 + delta, so c'(k0) = 1 <= c(k0) for k0 >= 2
    (c'(1) = 0), and then c'(k) = c'(k-1) + k. As gamma_c' <= gamma_c, the
    route's condition gamma_c n! e^n < 2^61 still suffices: per(|A|) <=
    n! e^n gives |f - det| < 2^61. With
    det = r + 2^64 v_1, |r| <= 2^63 gives |fl(r) - r| <= 2^10, and
    n! e^n < 2^61 / gamma_c <= 2^113 gives |v_1| < 2^50, so the subtraction
    rounds by at most (|v_1| + 1) * 2^-53 < 2^-3 after scaling: the scaled
    difference is within 1/8 + 2^-54 + 1/8 < 1/2 of v_1, and rint returns it.

    Routes "none" and "crt" rebuild the determinant from its residues
    modulo 2^64 = m_0 and the primes m_1..m_k by Garner's mixed-radix digits
    in signed form: R_i = m_0 ... m_(i-1), v_0 = r in [-2^63, 2^63) and v_i
    in (-p_i/2, p_i/2] for i >= 1. Since sum_i (p_i - 1) R_i telescopes to
    M - 2^64 with M = prod m_i, the largest such x is M/2 - 1 and the
    smallest -M/2: the digits cover [-M/2, M/2) once, one integer per
    residue class mod M. With primes from _crt_primes_for, M exceeds twice
    the Hadamard bound, so the determinant lies in that range and its
    digits are the ones computed here. Each digit is
    v_j = (r_j - sum_(i<j) v_i R_i) * R_j^-1 mod p_j, centred, with only
    inverses of constants.

    Lane 0 and the first wide lane, if any, are recomputed with det_bareiss;
    a mismatch raises AssertionError.
    """
    n = mats.shape[1]
    e = max(int(mats.max(initial=0)), -int(mats.min(initial=0)))
    k0 = _exact_level(n, e) if primes or route == "float64" else n
    a = mats.transpose(1, 2, 0).astype(np.uint64, order="C")
    base = _expand(a, a[n - 1], 1, k0)
    low = _dets_mod_p(a, base, k0, _WRAP)
    radices = [1, _WRAP]  # R_0, R_1, ...
    digits = []  # v_1, v_2, ...
    if route == "float64":
        signed = base.view(np.int64).astype(np.float64)
        f = _expand(a[: n - k0].view(np.int64).astype(np.float64), signed, k0, n)[0]
        f -= low
        f *= 2.0**-64
        digits.append(np.rint(f, out=f).astype(np.int64))
    for p in primes:
        # |v_i| < 2^27 and R_i mod p < 2^28: the sum stays below 2^60
        known = _mod(low, p)
        for v, r in zip(digits, radices[1:]):
            known += v * (r % p)
        v = _mod(_mod(_dets_mod_p(a, base, k0, p) - known, p) * pow(radices[-1] % p, -1, p), p)
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


def _stream_dets(stream, cnt, dim, m, shift, primes, route):
    """_exact_dets of the next cnt dim x dim matrices drawn from stream, with
    entries uniform below m, less shift, as (low, wide) over all cnt lanes.
    One _DET_BLOCK of lanes at a time goes from the draw to its determinants
    before the next is drawn."""
    low = np.empty(cnt, dtype=np.int64)
    wide = {}
    for i, flat in enumerate(stream.blocks(m, cnt * dim * dim, _DET_BLOCK * dim * dim)):
        if shift:
            flat -= shift
        lo = i * _DET_BLOCK
        low[lo : lo + _DET_BLOCK], w = _exact_dets(flat.reshape(-1, dim, dim), primes, route)
        wide.update((lo + l, v) for l, v in w.items())
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
    _check_trials("det", trials)
    emax_abs = entry_max - 1
    route, primes = _det_route(dim, emax_abs)
    cap = int(DET_BUDGET_US / _det_trial_us(dim, emax_abs, route, len(primes)))
    if trials > cap:
        raise ResourceLimitError(
            f"det trials at dim {dim}, entries up to {emax_abs}, capped at {cap:.2g}, got {trials}"
        )

    m, shift = (2 * emax_abs + 1, emax_abs) if symmetric_entries else (entry_max, 0)

    def batch(stream, cnt):
        d1, w1 = _stream_dets(stream, cnt, dim, m, shift, primes, route)
        d2, w2 = _stream_dets(stream, cnt, dim, m, shift, primes, route)
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
            "high_part": route,
        },
    )
