"""Multiplicative-function tables: mu and phi, plus a plain prime sieve.

Everything downstream that counts exactly reads from one immutable
:class:`SieveTables`. Tables are built with vectorised numpy passes over
primes up to sqrt(N) plus a single leftover-prime sweep, which keeps the
build at a few seconds for N = 1e7..1e8 where an elementwise linear sieve
in pure Python would take minutes.
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
        raise ResourceLimitError(
            f"sieve limit must be in [1, {MAX_SIEVE_LIMIT}], got {limit}"
        )
    n = limit
    mu = np.ones(n + 1, dtype=np.int8)
    phi = np.ones(n + 1, dtype=np.int32)
    # Product of all prime powers p^e | m over primes p <= sqrt(n); m divided
    # by it leaves 1 or a single prime > sqrt(n).
    smooth = np.ones(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        # every prime factor of a composite p <= sqrt(n) is already applied,
        # so phi[p] = phi(p) >= 2 there, while a prime p is still untouched
        if phi[p] == 1:
            phi[p::p] *= p - 1
            mu[p::p] *= -1
            if p * p <= n:
                mu[p * p :: p * p] = 0
            pk = p
            while pk <= n:
                smooth[pk::pk] *= p
                if pk > p:
                    phi[pk::pk] *= p
                pk *= p
    idx = np.arange(n + 1, dtype=np.int32)
    rem = idx // smooth
    big = rem > 1
    phi[big] *= rem[big] - 1
    mu[big] = -mu[big]
    mu[0] = 0
    phi[0] = 0
    if n >= 1:
        mu[1] = 1
        phi[1] = 1
    for arr in (mu, phi):
        arr.flags.writeable = False
    return SieveTables(limit=n, mu=mu, phi=phi)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of primes <= limit via a plain boolean sieve.

    Cheaper than full tables (1 byte/index); used by the prime density
    count, which may need primes well past the default table cap.
    """
    if limit < 0 or limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"prime enumeration limit must be in [0, {MAX_SIEVE_LIMIT}], got {limit}"
        )
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


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
        raise ResourceLimitError(
            f"{SIEVE_LIMIT_ENV} must be in [1, {MAX_SIEVE_LIMIT}], got {val}"
        )
    return val


_shared: SieveTables | None = None
_shared_lock = threading.Lock()


def shared_tables(min_limit: int) -> SieveTables:
    """Process-wide cached tables covering at least min_limit.

    Grows geometrically up to the configured cap so repeated callers with
    increasing needs do not rebuild from scratch each time. Thread-safe:
    callers that need a larger table at the same time build it once.

    The cache holds one table: growth replaces it rather than adding to it,
    so its size is bounded by :func:`configured_limit`, 5 bytes per index
    (int8 mu plus int32 phi), about 50 MB at the default cap of 1e7.
    """
    global _shared
    cap = configured_limit()
    if min_limit > cap:
        raise ResourceLimitError(
            f"operation needs sieve tables up to {min_limit}, above the configured "
            f"limit {cap}; raise {SIEVE_LIMIT_ENV} to allow it"
        )
    with _shared_lock:
        if _shared is None or _shared.limit < min_limit:
            target = max(min_limit, 1024)
            if _shared is not None:
                target = max(target, min(2 * _shared.limit, cap))
            _shared = build_sieve(min(max(target, min_limit), cap))
        return _shared
