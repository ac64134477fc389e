"""Multiplicative-function tables mu and phi, their prefix sums, and primes.

Everything downstream that counts exactly, and every prime the package
reads, comes from one :class:`SieveTables` held by :func:`shared_tables`;
the summatory recurrences start from that table's own prefix sums, each
summed on its first read. The table keeps only what counts read: Phi
replaces phi when it is summed, and phi is derived from Phi from then on.
Vectorised numpy passes over the primes up to sqrt(N) build it in a few
seconds for N = 1e7..1e8.
"""

import threading
from math import isqrt

import numpy as np

from .errors import ResourceLimitError
from .limits import MAX_SIEVE_LIMIT, sieve_cap


class SieveTables:
    """Arrays indexed 1..limit (index 0 is unused and zeroed).

    mu[n] in {-1, 0, +1} (int8), phi[n] = Euler totient (int32). Their
    prefix sums mu_sum and phi_sum are summed once per table, on first
    read. Summing Phi releases the int32 phi array: phi then reads
    Phi(m) - Phi(m - 1), the same values, as a new array. Every array
    handed out is read-only; a built table may be shared across threads.
    """

    __slots__ = ("limit", "mu", "_phi", "_mu_sum", "_phi_sum")

    def __init__(self, limit: int, mu: np.ndarray, phi: np.ndarray):
        self.limit, self.mu, self._phi = limit, mu, phi
        self._mu_sum = self._phi_sum = None

    @property
    def phi(self) -> np.ndarray:
        """phi(m) for m = 0..limit, int32."""
        return self._phi_between(0, self.limit + 1)

    @property
    def mu_sum(self) -> np.ndarray:
        """M(m) = mu(1) + ... + mu(m) for m = 0..limit, int16.

        Each step moves M by at most 1, so an int16 sum that wrapped would
        pass through 2^15 - 1 or -2^15; a result strictly between them has
        not wrapped (|M(m)| <= 1143 up to 1e7), and any other raises
        AssertionError.
        """
        with _lock:
            if self._mu_sum is None:
                total = _cumsum(self.mu, np.int16)
                if not (total.max() < 2**15 - 1 and total.min() > -(2**15)):
                    raise AssertionError(f"Mertens prefix up to {self.limit} leaves int16")
                self._mu_sum = total
            return self._mu_sum

    @property
    def phi_sum(self) -> np.ndarray:
        """Phi(m) = phi(1) + ... + phi(m), int64 as Phi(m) <= m(m + 1)/2 < 2^63.

        Its first read releases the int32 phi array it was summed from."""
        with _lock:
            if self._phi_sum is None:
                self._phi_sum, self._phi = _cumsum(self._phi, np.int64), None
            return self._phi_sum

    def _phi_between(self, lo: int, hi: int) -> np.ndarray:
        """phi(m) for lo <= m < hi, read-only int32: a view of phi while it
        is kept, else Phi(m) - Phi(m - 1) over that range only."""
        with _lock:
            phi, total = self._phi, self._phi_sum
        if phi is not None:
            return phi[lo:hi]
        out = np.zeros(max(hi - lo, 0), dtype=np.int32)  # phi(0) = 0
        first = max(lo, 1)
        np.subtract(total[first:hi], total[first - 1 : hi - 1], out=out[first - lo :], casting="unsafe")
        out.flags.writeable = False
        return out


def _cumsum(values: np.ndarray, dtype) -> np.ndarray:
    """Read-only prefix sums of values, summed in place in dtype."""
    total = values.astype(dtype)  # in place: no cast temporary
    np.cumsum(total, dtype=dtype, out=total)
    total.flags.writeable = False
    return total


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
    phi = shared_tables(limit)._phi_between(2, limit + 1)
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
    sums included, so the cache stays within :func:`limits.configured_limit`:
    5 bytes per index (int8 mu plus int32 phi), about 50 MB at the default
    cap of 1e7, 13 while a count sums Phi (int64) from phi, 9 once Phi has
    replaced phi, and 2 more once a count reads M (int16).
    """
    global _shared
    cap = sieve_cap(min_limit)
    with _lock:
        if _shared is None or _shared.limit < min_limit:
            grown = 2 * _shared.limit if _shared is not None else 1
            _shared = build_sieve(min(max(min_limit, grown), cap))
        return _shared
