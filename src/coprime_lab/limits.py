"""Every experiment's argument ranges and resource caps, in one table.

``check(name, **values)`` runs the rules of ``RULES[name]``, the row of the
library function of that name, in order, and raises at the first that
fails: ValueError for an argument outside its range, ResourceLimitError for
a cap or budget, OverflowError for a growth function too large to evaluate.
The caps rest on the pure-integer cost models below (sieve base sizes, fgcd
exact roots, determinant trials), so a refusal is decided before any table,
lane or batch exists.

The module needs the standard library only. The CLI runs a command's check
after parsing and before it loads any layer, so a refusal or argument error
loads no numpy; each library function runs the same check first, so the
library refuses alike, with the same message.
"""

import math
import os
from collections import namedtuple

from .errors import ResourceLimitError

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

#: Largest trials per estimator, at most about a minute each on one thread
#: (2 vCPUs) at 0.05-0.07 us a trial for pairs (range_max 1e9) and triples
#: (1e6), 0.11 us for Gaussian pairs (box 1000) and 0.9-1.0 us for
#: determinant pairs (dim 6, entries below 1000). Costlier determinant routes
#: get fewer, by _det_trial_us.
TRIALS_MAX = {"pair": 5 * 10**8, "triple3": 5 * 10**8, "gaussian": 4 * 10**8, "det": 2 * 10**7}

#: Microseconds of determinant trials one estimate may take by _det_trial_us.
DET_BUDGET_US = 60 * 10**6

#: Largest m that a Monte Carlo draw accepts.
DRAW_MAX = 1 << 62

#: Hard implementation maximum for any sieve build.
MAX_SIEVE_LIMIT = 10**8

#: Default cap for tables built implicitly on demand.
DEFAULT_SIEVE_LIMIT = 10**7

#: Environment variable overriding :data:`DEFAULT_SIEVE_LIMIT`.
SIEVE_LIMIT_ENV = "COPRIME_LAB_SIEVE_LIMIT"

#: Smallest base table the public routes use (all of n below it): a table
#: this size costs less than the recurrence's per-step numpy overhead.
SMALL_TABLE = 10**4

#: Largest dense table a j = 1 count asks for past sqrt(n): the rest of its
#: base is streamed from sieve blocks, so a base up to this size stays in
#: the shared table for the next count.
DENSE_BASE_MAX = 1 << 16

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


# ---------------------------------------------------------------------------
# Sieve tables
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


def _base_size(n: int, j: int = 1) -> int:
    """Base table size for the recurrence at n: about n^(2/(2j+1)), at most iroot(n, j)."""
    return min(iroot(n, j), iroot(n * n, 2 * j + 1))


def table_need(n: int, j: int = 1, small: int = SMALL_TABLE) -> int:
    """The table a count at n first asks the sieve cache for: _base_size(n, j),
    at least small, at most iroot(n, j)."""
    if n <= small:  # then iroot(n, j) <= small
        return iroot(n, j)
    return min(iroot(n, j), max(small, _base_size(n, j)))


def configured_limit() -> int:
    """Cap for implicitly built tables (env override, else default)."""
    raw = os.environ.get(SIEVE_LIMIT_ENV, str(DEFAULT_SIEVE_LIMIT))
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SIEVE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if val < 1 or val > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"{SIEVE_LIMIT_ENV} must be in [1, {MAX_SIEVE_LIMIT}], got {val}")
    return val


def sieve_cap(min_limit: int) -> int:
    """The configured cap, after refusing a table need above it."""
    cap = configured_limit()
    if min_limit > cap:
        raise ResourceLimitError(
            f"operation needs sieve tables up to {min_limit}, above the configured "
            f"limit {cap}; raise {SIEVE_LIMIT_ENV} to allow it"
        )
    return cap


# ---------------------------------------------------------------------------
# gcd(n, floor(f(n))): the growth function and its exact-root budget
# ---------------------------------------------------------------------------


class FunctionSpec(namedtuple("FunctionSpec", "A p B q label")):
    """A growth function f for the gcd(m, floor(f(m))) experiment.

    floor(f(m)) is the largest r >= 0 with B*r^q <= A*m^p, and label names f
    in records: sqrt(2)*m is (2, 2, 1, 2), (a/b)*m with a/b > 0 is
    (a, 1, b, 1) and m^(p/q) with p/q > 0 not an integer is (1, p, 1, q).
    """

    __slots__ = ()

    @staticmethod
    def sqrt2_times_n() -> "FunctionSpec":
        return FunctionSpec(2, 2, 1, 2, "sqrt2*n")

    @staticmethod
    def alpha_times_n(alpha) -> "FunctionSpec":
        from fractions import Fraction

        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("alpha_times_n needs alpha > 0")
        return FunctionSpec(alpha.numerator, 1, alpha.denominator, 1, f"{alpha}*n")

    @staticmethod
    def n_pow_c(c) -> "FunctionSpec":
        from fractions import Fraction

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


def _floor_f_us(bits: int) -> float:
    """Microseconds of one floor_f at a bits-bit A*m^p (2 vCPUs), an upper fit
    from 100 to 150,000 bits: a fixed cost, then the root's long divisions,
    quadratic in bits."""
    return 2 + bits / 250 + (bits / 400) ** 2


def _reduced(spec: FunctionSpec) -> tuple[int, int, int, int]:
    """(A, p, B, q) of spec, with A mod B for q = 1: alpha = A/B, and
    gcd(m, k*m + t) = gcd(m, t), so A mod B counts alike."""
    A, p, B, q = spec.A, spec.p, spec.B, spec.q
    return (A % B if q == 1 else A), p, B, q


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


def _fgcd_budget(v) -> None:
    """Refuse an fgcd count whose certain floor_f lanes pass FGCD_SLOW_BUDGET_US."""
    n, spec = v["n"], v["spec"]
    bits = _floor_bits(spec, n)
    slow = _unproven_lanes(n, *_reduced(spec))
    slow_us = slow * _floor_f_us(bits)
    if slow_us > FGCD_SLOW_BUDGET_US:
        raise ResourceLimitError(
            f"fgcd with f = {spec.label} at n = {n} leaves {slow} lanes to exact roots,"
            f" about {slow_us / 1e6:.0f} s against a budget of {FGCD_SLOW_BUDGET_US / 1e6:.0f} s"
        )


# ---------------------------------------------------------------------------
# Determinant trials: the route that rebuilds the high part, and its cost
# ---------------------------------------------------------------------------


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


def _exact_level(n: int, e: int) -> int:
    """The largest k <= n with k^k e^(2k) < 2^126: by Hadamard's bound every
    minor of order k of a matrix with entries at most e in magnitude is then
    below (sqrt(k) e)^k < 2^63, and fits int64."""
    return max(k for k in range(1, n + 1) if k**k * e ** (2 * k) < 1 << 126)


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


def _det_budget(v) -> None:
    """Refuse more determinant trials than DET_BUDGET_US pays for."""
    dim, emax_abs, trials = v["dim"], v["entry_max"] - 1, v["trials"]
    route, primes = _det_route(dim, emax_abs)
    cap = int(DET_BUDGET_US / _det_trial_us(dim, emax_abs, route, len(primes)))
    if trials > cap:
        raise ResourceLimitError(
            f"det trials at dim {dim}, entries up to {emax_abs}, capped at {cap:.2g}, got {trials}"
        )


def _entry_max(v) -> None:
    # symmetric entries draw below 2 * entry_max - 1
    symmetric = v.get("symmetric_entries", False)  # the library default
    top, shown = (DRAW_MAX // 2, "2^61 with symmetric entries") if symmetric else (DRAW_MAX, "2^62")
    if not 2 <= v["entry_max"] <= top:
        raise ValueError(f"entry_max must be in [2, {shown}], got {v['entry_max']}")


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


def _in_range(v, name: str, lo: int, hi=None, shown=None) -> None:
    """The rule of a row (name, lo) or (name, lo, hi[, shown]): lo <= v[name],
    and <= hi when given (printed as shown), else ValueError."""
    x = v[name]
    if hi is None and x < lo:
        raise ValueError(f"{name} must be >= {lo}, got {x}")
    if hi is not None and not lo <= x <= hi:
        raise ValueError(f"{name} must be in [{lo}, {shown or hi}], got {x}")


def _capped(name: str, cap: int, message: str, error=ResourceLimitError):
    """name <= cap, else error(message), formatted with cap and the values."""
    def rule(v):
        if v[name] > cap:
            raise error(message.format(cap=cap, **v))

    return rule


def _sieve(need):
    """The table need(values) asks for, None for none, fits under the configured cap."""
    def rule(v):
        m = need(v)
        if m is not None:
            sieve_cap(m)

    return rule


def _trials_cap(kind: str):
    return _capped("trials", TRIALS_MAX[kind], kind + " trials capped at {cap:.0e}, got {trials}")


_N_TABLE = _sieve(lambda v: table_need(v["n"]))
_RANGE_MAX = ("range_max", 1, DRAW_MAX, "2^62")
# _run_batches needs a batch: every estimator checks this last
_SOME_TRIALS = ("trials", 1)

#: Each library function's rules, in the order it checks them: a tuple is a
#: range (see _in_range), anything else a rule called with the arguments.
RULES = {
    # the pair counts' two routes: their first table call refuses as _N_TABLE
    # would, and the counts that call them have checked it already
    "totient_sum": (("n", 0),),
    "coprime_ordered_count_mobius": (("n", 1),),
    "coprime_pair_count": (("n", 2), _N_TABLE),
    "gcd_equal_count": (
        ("n", 2), ("t", 1),
        # the coprime pairs below n // t, none to count below 2
        _sieve(lambda v: table_need(v["n"] // v["t"]) if v["n"] // v["t"] >= 2 else None),
    ),
    "ktuple_coprime_count": (("k", 2, 10), ("n", 1), _N_TABLE),
    "pairwise_coprime_triple_count": (
        ("n", 1),
        _capped("n", TRIPLE_BRUTE_BOUND, "exact pairwise-triple counting is brute force and capped at "
                "n = {cap}; use the Monte Carlo estimator for n = {n}"),
    ),
    "odd_coprime_pair_count": (("n", 3), _N_TABLE),
    "kfree_count": (("j", 2, 16), ("n", 1), _sieve(lambda v: table_need(v["n"], v["j"]))),
    "squarefree_count": (("n", 1), _sieve(lambda v: table_need(v["n"], 2))),
    "visible_points_in_disk": (
        ("radius", 1),
        _capped("radius", VISIBLE_MAX, "disk scan capped at radius {cap:.0e}, got {radius}"),
        _sieve(lambda v: v["radius"]),
    ),
    "prime_density": (
        ("x", 1),
        _capped("x", PRIME_DENSITY_MAX, "prime counting capped at x = {cap:.0e}, got {x}"),
        _sieve(lambda v: math.isqrt(v["x"])),  # the primes up to sqrt(x)
    ),
    "f_gcd_density": (
        ("n", 1), _capped("n", FGCD_MAX, "fgcd counting capped at n = {cap:.0e}, got {n}"),
        _fgcd_budget,
    ),
    "estimate_coprime_pair": (_RANGE_MAX, _trials_cap("pair"), _SOME_TRIALS),
    "estimate_pairwise_triple": (_RANGE_MAX, _trials_cap("triple3"), _SOME_TRIALS),
    "estimate_gaussian_coprime": (
        ("box_half_width", 1),
        _capped("box_half_width", 1 << 30, "box_half_width above 2^30 would overflow the gcd kernel",
                ValueError),
        _trials_cap("gaussian"), _SOME_TRIALS,
    ),
    "estimate_det_coprime": (("dim", 1, 8), _entry_max, _trials_cap("det"), _det_budget, _SOME_TRIALS),
}


def check(name: str, **values) -> None:
    """Run the rules of the library function name on its arguments, in
    order; the first that fails raises. Arguments no rule reads are ignored."""
    for rule in RULES[name]:
        if isinstance(rule, tuple):
            _in_range(values, *rule)
        else:
            rule(values)
