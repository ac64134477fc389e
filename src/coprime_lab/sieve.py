"""Multiplicative-function tables mu and phi, their prefix sums, and primes.

Everything downstream that counts exactly, and every prime the package
reads, comes from one immutable :class:`SieveTables` held by
:func:`shared_tables`; the summatory recurrences start from that table's
own prefix sums, each summed on its first read. Vectorised numpy passes
over the primes up to sqrt(N) build it in a few seconds for N = 1e7..1e8.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import ResourceLimitError
from .limits import MAX_SIEVE_LIMIT, sieve_cap

# limits owns these; callers also import them from here
from .limits import DEFAULT_SIEVE_LIMIT, SIEVE_LIMIT_ENV, configured_limit  # noqa: F401


@dataclass(frozen=True)
class SieveTables:
    """Arrays indexed 1..limit (index 0 is unused and zeroed).

    mu[n] in {-1, 0, +1}, phi[n] = Euler totient. Their prefix sums mu_sum
    and phi_sum are summed once per table, on first read. Arrays are marked
    read-only; a built table may be shared across threads.
    """

    limit: int
    mu: np.ndarray
    phi: np.ndarray
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def mu_sum(self) -> np.ndarray:
        """M(m) = mu(1) + ... + mu(m) for m = 0..limit, int32 as |M(m)| <= m < 2^31."""
        return self._summed("mu", np.int32)

    @property
    def phi_sum(self) -> np.ndarray:
        """Phi(m) = phi(1) + ... + phi(m), int64 as Phi(m) <= m(m + 1)/2 < 2^63."""
        return self._summed("phi", np.int64)

    def _summed(self, name: str, dtype) -> np.ndarray:
        with _lock:
            if name not in self._sums:
                total = getattr(self, name).astype(dtype)  # in place: no cast temporary
                self._sums[name] = np.cumsum(total, out=total)
                total.flags.writeable = False
            return self._sums[name]


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


_shared: SieveTables | None = None
#: Guards _shared and the prefix sums of every table.
_lock = threading.Lock()


def shared_tables(min_limit: int) -> SieveTables:
    """Process-wide cached tables covering at least min_limit: the one cache.

    Grows geometrically up to the configured cap, so callers with increasing
    needs do not rebuild from scratch each time, and refuses a min_limit
    above the cap before any work. Thread-safe: callers that need a larger
    table at the same time build it once. Growth replaces the table, prefix
    sums included, so the cache stays within :func:`limits.configured_limit`: 5
    bytes per index (int8 mu plus int32 phi), about 50 MB at the default cap
    of 1e7, plus 4 once a count reads M and 8 more once one reads Phi.
    """
    global _shared
    cap = sieve_cap(min_limit)
    with _lock:
        if _shared is None or _shared.limit < min_limit:
            grown = 2 * _shared.limit if _shared is not None else 1
            _shared = build_sieve(min(max(min_limit, grown), cap))
        return _shared
