"""Seeded, reproducible Monte Carlo estimators with Wilson intervals.

Trials are split into fixed batches of 2^16; batch b draws from its own
splitmix64 stream seeded by mix(seed, b), and batch success counts are
combined by integer summation. Results are therefore identical for any
worker count, and re-running with the same seed reproduces successes
exactly on any platform.

One rule picks the lanes: RngStream.uniform_below(m, count) returns int32
when m < 2^31 and int64 above, and every kernel computes on the lanes it
gets. The pair and triple gcds (of values up to range_max) first drop lanes
with two entries even or two divisible by 3, then run kernels.gcd_lanes on
the whole batch: Euclid with nearest-integer quotients, exact in float32 up
to 2^23 and in float64 up to 2^52, at about 12 ns a lane at 1e6 and 35 ns at
1e9 against np.gcd's 65 and 95; larger range_max goes to np.gcd. The
Gaussian and determinant gcds run np.gcd. The Gaussian gcd runs in int32
when every |coordinate| <= 2^15 - 1, as its terms are then at most
2 (2^15 - 1)^2 < 2^31, and in int64 above.

Determinant trials need exact integer determinants. Each is a
division-free minor expansion, with no pivots, computed modulo 2^64 in
wrapping uint64. The part above 2^64 comes from nothing where 2^64 exceeds
twice the Hadamard bound (dim <= 5 at entries below 1000), from one float64
pass of the same expansion where its rounding error is proven below 2^61
(every dim <= 8 at entries up to about 3,000; the proof is in _exact_dets),
and otherwise from residues modulo as many primes below 2^28 as the
Hadamard bound calls for, by signed Garner digits. Determinants come back
in int64 on every lane where they fit, and as Python ints on the lanes
where they do not. The pure-integer Bareiss routine below is the oracle:
every stack checks a lane against it.
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

#: Largest m that RngStream.uniform_below accepts.
_DRAW_MAX = 1 << 62

#: Largest trials per estimator, at most about a minute each on one thread
#: (2 vCPUs) at 0.05-0.07 us a trial for pairs (range_max 1e9) and triples
#: (1e6), 0.11 us for Gaussian pairs (box 1000) and 1.6-2.0 us for
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
        """The next n words: the splitmix64 finalizer, in place on the counters."""
        z = np.arange(self._idx + 1, self._idx + n + 1, dtype=np.uint64)
        self._idx += n
        t = np.empty_like(z)  # each shift
        z *= _G
        z += np.uint64(self.seed)
        z ^= np.right_shift(z, _S30, out=t)
        z *= _M1
        z ^= np.right_shift(z, _S27, out=t)
        z *= _M2
        z ^= np.right_shift(z, _S31, out=t)
        return z

    def uniform_below(self, m: int, count: int) -> np.ndarray:
        """count uniform values in [0, m), modulo-bias-free by rejection:
        int32 lanes when m < 2^31, int64 above.

        Values of m up to 2^32 use both 32-bit halves of each word, low half
        first on every host, and filter and reduce them in 32 bits; larger m
        rejects whole words. A round of need/2 + 4 words (need + 4 whole)
        goes through words() a _WORD_BLOCK at a time, straight into the
        output; its words past the last value taken are skipped unread.
        """
        if m < 1 or m > _DRAW_MAX:
            raise ValueError(f"m must be in [1, 2^62], got {m}")
        out = np.zeros(count, dtype=np.int32 if m < 1 << 31 else np.int64)
        if m == 1:
            return out
        halves = m <= 1 << 32
        lane = np.uint32 if halves else np.uint64
        lim = lane(((1 << (32 if halves else 64)) // m) * m - 1)
        mm = (np.uint32 if m < 1 << 32 else np.uint64)(m)  # 2^32 needs 64 bits
        filled = 0
        while filled < count:
            need = count - filled
            end = self._idx + ((need + 1) // 2 + 4 if halves else need + 4)
            while filled < count and self._idx < end:
                w = self.words(min(end - self._idx, _WORD_BLOCK))
                if halves:  # little-endian view: low half first, a copy only on big-endian hosts
                    w = w.astype("<u8", copy=False).view("<u4")
                w = w[w <= lim][: count - filled]  # the lanes taken; the block is freed
                np.remainder(w, mm, out=out[filled : filled + len(w)], casting="unsafe")
                filled += len(w)
            self._idx = end
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
    return np.gcd(np.gcd(a * a + b * b, c * c + d * d), a * d - b * c) == 1


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

#: Lanes per pass of the minor expansion, so a pass's minors stay in cache.
_DET_CHUNK = 1 << 14


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

    The expansion's dim 2^(dim-1) multiplies per lane run once modulo 2^64,
    once more in float64 on that route, and at twice that cost per CRT
    prime. Lanes wider than int64 add 4.5 + primes more as Python ints; they
    are the typical lane once dim! (e^2/3)^dim, about the mean square
    determinant at entries up to e = entry_max_abs, reaches 2^126.
    """
    e = entry_max_abs
    passes = 1 + (route == "float64") + 2 * primes
    wide = math.factorial(dim) * (e * e) ** dim >= 3**dim << 126
    return 0.2 + 0.006 * (dim << (dim - 1)) * passes + wide * (4.5 + primes)


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


def _expand(mats: np.ndarray, dtype, reduce=None) -> np.ndarray:
    """The division-free minor expansion of every lane of mats, shape (L, n, n).

    It runs from the bottom row up: 2^n - 1 minors and n * 2^(n-1)
    multiplies per lane, with no pivot and no inverse. Lanes go in blocks of
    _DET_CHUNK, each cast to dtype and transposed to (n, n, lanes), so each
    entry and minor is a contiguous vector. reduce(x), if given, acts in
    place on the entries and on each level of minors. Returns one
    determinant per lane, in dtype.
    """
    lanes, n, _ = mats.shape
    out = np.empty(lanes, dtype=dtype)
    for lo in range(0, lanes, _DET_CHUNK):
        a = mats[lo : lo + _DET_CHUNK].transpose(1, 2, 0).astype(dtype, order="C")
        if reduce is not None:
            reduce(a)
        minors = a[n - 1]
        tmp = np.empty_like(minors[0])
        for k, level in enumerate(_minor_schedule(n), start=2):
            row = a[n - k]
            nxt = np.empty((len(level), len(tmp)), dtype=dtype)
            for acc, ((c, sub), *rest) in zip(nxt, level):
                np.multiply(row[c], minors[sub], out=acc)
                for t, (c, sub) in enumerate(rest):
                    np.multiply(row[c], minors[sub], out=tmp)
                    if t & 1:
                        acc += tmp
                    else:
                        acc -= tmp
            if reduce is not None:
                reduce(nxt)
            minors = nxt
        out[lo : lo + _DET_CHUNK] = minors[0]
    return out


def _dets_mod_p(mats: np.ndarray, m: int) -> np.ndarray:
    """Determinants modulo m of a stack of int32 or int64 matrices, shape (L, n, n),
    by _expand; m is 2^64 or a prime below 2^28, and every lane is exact.

    Modulo 2^64 the arithmetic is wrapping uint64, a ring homomorphism from
    Z that either entry type casts into; the result is its int64 view.

    Modulo p the entries and every minor are reduced to a signed residue r
    with |r| < p, so each product is below 2^56 and the <= 8 signed terms
    of a minor stay below 8p^2 < 2^59 in int64. Each x reduced is below
    2^62 in magnitude, and is reduced without division as x - q*p with
    q = rint(fl(fl(x) * fl(1/p))): as |x/p| < 2^62 / 2^27 = 2^35, the three
    roundings move x/p by less than 2^-51 * 2^35 = 2^-16, so
    |x/p - q| < 1/2 + 2^-16 and |x - q*p| < p. The determinant comes back
    in [0, p).
    """
    if m == _WRAP:
        return _expand(mats, np.uint64).view(np.int64)
    inv = 1.0 / m

    def reduce(x):
        q = np.rint(x * inv).astype(np.int64)
        q *= m
        x -= q

    return _expand(mats, np.int64, reduce) % m


def _exact_dets(
    mats: np.ndarray, primes: list[int], route: str = "crt"
) -> tuple[np.ndarray, dict[int, int]]:
    """Exact determinants of a stack of int32 or int64 matrices, shape (L, n, n).

    Returns (low, wide). low is int64 and low[l] is det(mats[l]) on every
    lane whose determinant fits int64; wide maps each other lane to its
    determinant as a Python int. route and primes come from _det_route.

    Every route starts from r, the int64 view of the determinant modulo
    2^64, and writes det = r + sum_i v_i R_i with R_1 = 2^64: a determinant
    fits int64 exactly when every v_i is 0, and then it is r; only the other
    lanes become Python ints.

    Route "float64" (primes empty) runs the same expansion once more in
    float64, with no reduction, giving f, and takes the one digit
    v_1 = rint((f - fl(r)) * 2^-64). A minor of order k is a length-k signed
    dot product of entries with minors of order k - 1, so by the standard
    bound (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1) each of its monomials carries at most c(k) = c(k-1) + k
    roundings, c(1) = 0, and f is within gamma_c * per(|A|) of det with
    c = c(n) = n(n+1)/2 - 1, gamma_c = c u / (1 - c u) and u = 2^-53; the
    entries are exact in float64 as e <= 2^53. per(|A|) <= n! e^n, so the
    route's condition gamma_c n! e^n < 2^61 gives |f - det| < 2^61. With
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
    low = _dets_mod_p(mats, _WRAP)
    radices = [1, _WRAP]  # R_0, R_1, ...
    digits = []  # v_1, v_2, ...
    if route == "float64":
        f = _expand(mats, np.float64)
        f -= low
        f *= 2.0**-64
        digits.append(np.rint(f, out=f).astype(np.int64))
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
    _check_trials("det", trials)
    emax_abs = entry_max - 1
    route, primes = _det_route(dim, emax_abs)
    cap = int(DET_BUDGET_US / _det_trial_us(dim, emax_abs, route, len(primes)))
    if trials > cap:
        raise ResourceLimitError(
            f"det trials at dim {dim}, entries up to {emax_abs}, capped at {cap:.2g}, got {trials}"
        )

    def draw(stream, cnt):
        if symmetric_entries:
            flat = stream.uniform_signed(emax_abs, cnt * dim * dim)
        else:
            flat = stream.uniform_below(entry_max, cnt * dim * dim)
        return flat.reshape(cnt, dim, dim)

    def batch(stream, cnt):
        d1, w1 = _exact_dets(draw(stream, cnt), primes, route)
        d2, w2 = _exact_dets(draw(stream, cnt), primes, route)
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
