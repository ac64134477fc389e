"""Multiplicative-function tables mu and phi, and the primes read off them.

Everything downstream that counts exactly, and every prime the package
reads, comes from one immutable :class:`SieveTables` held by
:func:`shared_tables`, and the summatory recurrences start from its prefix
sums, held by :func:`summatory_prefixes`. Vectorised numpy passes over the
primes up to sqrt(N) build it in a few seconds for N = 1e7..1e8.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ResourceLimitError

#: Hard implementation maximum for any sieve build.
MAX_SIEVE_LIMIT = 10**8

#: Default cap for tables built implicitly on demand.
DEFAULT_SIEVE_LIMIT = 10**7

#: Environment variable overriding :data:`DEFAULT_SIEVE_LIMIT`.
SIEVE_LIMIT_ENV = "COPRIME_LAB_SIEVE_LIMIT"


@dataclass(frozen=True)
class SieveTables:
    """Arrays indexed 1..limit (index 0 is unused and zeroed).

    mu[n] in {-1, 0, +1}, phi[n] = Euler totient.
    Arrays are marked read-only; a built table may be shared across threads.
    """

    limit: int
    mu: np.ndarray
    phi: np.ndarray


def build_sieve(limit: int) -> SieveTables:
    """Build tables for 1..limit. Deterministic; raises ResourceLimitError
    for limit = 0 or limit > MAX_SIEVE_LIMIT."""
    if limit < 1 or limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit must be in [1, {MAX_SIEVE_LIMIT}], got {limit}")
    n = limit
    mu = np.ones(n + 1, dtype=np.int8)
    phi = np.ones(n + 1, dtype=np.int32)
    # m with every prime power p^e | m, p <= sqrt(n), divided out: 1 or the
    # single prime factor of m above sqrt(n)
    rem = np.arange(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        # every prime factor of a composite p <= sqrt(n) is already applied,
        # so phi[p] = phi(p) >= 2 there, while a prime p is still untouched
        if phi[p] == 1:
            phi[p::p] *= p - 1
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            pk = p
            while pk <= n:
                rem[pk::pk] //= p
                if pk > p:
                    phi[pk::pk] *= p
                pk *= p
    np.negative(mu, out=mu, where=rem > 1)
    rem -= 1
    phi *= np.maximum(rem, 1, out=rem)
    mu[0] = phi[0] = 0
    for arr in (mu, phi):
        arr.flags.writeable = False
    return SieveTables(limit=n, mu=mu, phi=phi)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of primes <= limit, read off the shared table:
    m >= 2 is prime exactly when phi(m) = m - 1."""
    if limit < 0:
        raise ResourceLimitError(f"prime enumeration limit must be >= 0, got {limit}")
    phi = shared_tables(limit).phi[2 : limit + 1]
    return np.flatnonzero(phi == np.arange(1, limit, dtype=np.int32)) + 2


def configured_limit() -> int:
    """Cap for implicitly built tables (env override, else default)."""
    raw = os.environ.get(SIEVE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIEVE_LIMIT
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SIEVE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if val < 1 or val > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"{SIEVE_LIMIT_ENV} must be in [1, {MAX_SIEVE_LIMIT}], got {val}")
    return val


#: Entries of the smallest shared table, about 5 KB.
_MIN_TABLE = 1024

_shared: SieveTables | None = None
#: (Phi, M) with Phi(m) = phi(1) + ... + phi(m) as int64 and the Mertens
#: function M(m) = mu(1) + ... + mu(m) as int32, for m = 0..limit.
_prefixes: tuple[np.ndarray, np.ndarray] | None = None
#: Guards _shared and _prefixes; reentrant, as summatory_prefixes grows the
#: table through shared_tables while it holds the lock.
_shared_lock = threading.RLock()


def _cap(min_limit: int) -> int:
    """The configured cap, never below _MIN_TABLE; refuses a min_limit above it."""
    cap = max(configured_limit(), _MIN_TABLE)
    if min_limit > cap:
        raise ResourceLimitError(
            f"operation needs sieve tables up to {min_limit}, above the configured "
            f"limit {cap}; raise {SIEVE_LIMIT_ENV} to allow it"
        )
    return cap


def shared_tables(min_limit: int) -> SieveTables:
    """Process-wide cached tables covering at least min_limit.

    Grows geometrically up to the configured cap so repeated callers with
    increasing needs do not rebuild from scratch each time. Thread-safe:
    callers that need a larger table at the same time build it once. Under
    any cap the smallest table, _MIN_TABLE entries, is built on request.

    The cache holds one table: growth replaces it rather than adding to it,
    so its size is bounded by :func:`configured_limit`, 5 bytes per index
    (int8 mu plus int32 phi), about 50 MB at the default cap of 1e7. The
    prefix sums of :func:`summatory_prefixes` add 12 bytes per index of the
    longest base summed, which is at most the table's limit.
    """
    global _shared
    cap = _cap(min_limit)
    with _shared_lock:
        if _shared is None or _shared.limit < min_limit:
            grown = 2 * _shared.limit if _shared is not None else 0
            _shared = build_sieve(min(max(min_limit, grown, _MIN_TABLE), cap))
        return _shared


def summatory_prefixes(min_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Process-wide (Phi, M) over m = 0..limit with limit >= min_limit.

    Phi(m) = sum of phi(k) and M(m) = sum of mu(k) over k <= m, read-only
    int64 and int32 arrays: Phi(m) <= m(m + 1)/2 < 2^63 and |M(m)| <= m <
    2^31 for every m <= MAX_SIEVE_LIMIT. Summed once from the shared table
    and kept when the table is replaced, as a prefix does not depend on the
    table that produced it. A growth sums exactly up to min_limit. Refuses,
    as shared_tables does, a min_limit above the configured cap, whatever
    the cache holds. Thread-safe.
    """
    global _prefixes
    _cap(min_limit)
    with _shared_lock:
        if _prefixes is None or len(_prefixes[0]) <= min_limit:
            tables = shared_tables(min_limit)
            phi_sum = np.cumsum(tables.phi[: min_limit + 1], dtype=np.int64)
            mu_sum = np.cumsum(tables.mu[: min_limit + 1], dtype=np.int32)
            for arr in (phi_sum, mu_sum):
                arr.flags.writeable = False
            _prefixes = (phi_sum, mu_sum)
        return _prefixes
