"""Prime sieve and the bijection n <-> prime-exponent multi-index.

Every integer n >= 1 factors uniquely as prod_j p_j^alpha_j over the
increasing primes p_1 = 2, p_2 = 3, ...; the exponent sequence is the
multi-index of n.  `factorize` and `index_of` realize the two directions.

`factorize` walks the smallest-prime-factor chain of an n the factor
table covers, growing the table to n when n is under the cap.  A larger
n is split by `trial_factors`, the package's one trial division: over
the primes below 2^16, then over the larger table primes that divide
what is left, found by one vector remainder; a cofactor left past the
table grows the table to it, or fails loudly past the cap.

The sieve is a process-wide table of the position of n's smallest prime
factor.  It grows on demand (amortized doubling), never shrinks, and
grows under a lock, installing fresh arrays so that concurrent readers
always see a consistent snapshot.  The environment variable
BOHRLIFT_SIEVE_CAP caps the table size; requests past the cap fail
loudly instead of swallowing memory.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left, bisect_right
from itertools import islice

import numpy as np

from .errors import IndexRangeError, SieveCapError
from .multiindex import EMPTY_INDEX, MultiIndex

#: Largest integer index handled anywhere in the package (signed 64-bit).
MAX_INDEX = 2**63 - 1

SIEVE_CAP_ENV = "BOHRLIFT_SIEVE_CAP"
_DEFAULT_CAP = 1 << 24

_lock = threading.Lock()
_spf = np.zeros(2, dtype=np.int32)
_primes: list[int] = []
_prime_array = np.zeros(0, dtype=np.int64)  # _primes as int64, for vector remainders
_limit = 1


def _size_cap() -> int:
    raw = os.environ.get(SIEVE_CAP_ENV)
    if raw is None:
        return _DEFAULT_CAP
    cap = int(raw)
    if cap < 1024:
        raise ValueError(f"{SIEVE_CAP_ENV} must be at least 1024, got {cap}")
    return cap


def _grow(target: int) -> None:
    """Extend the table to cover [2, target]; _primes[_spf[n]] is n's smallest prime factor."""
    global _spf, _primes, _prime_array, _limit
    with _lock:
        if target <= _limit:
            return
        cap = _size_cap()
        if target > cap:
            raise SieveCapError(
                f"sieve request {target} exceeds cap {cap}; raise {SIEVE_CAP_ENV} to allow it"
            )
        limit = min(max(2 * _limit, target, 1 << 10), cap)
        spf = np.full(limit + 1, -1, dtype=np.int32)
        k = 0  # the position of p, the k-th prime up to sqrt(limit)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] < 0:
                block = spf[p * p :: p]
                block[block < 0] = k
                k += 1
        prime_array = np.flatnonzero(spf < 0)[2:].astype(np.int64)  # the entries left unset past 0 and 1
        spf[prime_array] = np.arange(prime_array.size, dtype=np.int32)
        # primes before the table, the table before the limit: positions only extend the prime
        # list, so a reader that sees the new table also sees a prime for each of its positions
        _primes = prime_array.tolist()
        _prime_array = prime_array
        _spf = spf
        _limit = limit


def sieve_limit() -> int:
    """Largest integer currently covered by the factor table."""
    return _limit


def primes_up_to(x: int) -> list[int]:
    """All primes p <= x in increasing order."""
    if x < 2:
        return []
    _grow(x)
    return _primes[: bisect_right(_primes, x)]


def nth_prime(position: int) -> int:
    """The prime at 0-based position: nth_prime(0) = 2, nth_prime(2) = 5."""
    if position < 0:
        raise ValueError("position must be non-negative")
    while position >= len(_primes):
        cap = _size_cap()
        k = max(position + 1, 6)
        # k ln k < p_k < k (ln k + ln ln k) for k >= 6: past the cap at once when the lower
        # bound is; otherwise one growth step, to the cap at most, reaches p_k or the cap
        if _limit >= cap or k * math.log(k) > cap:
            raise SieveCapError(
                f"the prime at position {position} lies past the cap {cap}; raise {SIEVE_CAP_ENV} to allow it"
            )
        bound = int(k * (math.log(k) + math.log(math.log(k)))) + 16
        _grow(min(max(bound, 2 * _limit), cap))
    return _primes[position]


def trial_factors(n: int, primes) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs with increasing bases whose product of powers is n.

    The bases are the primes of `primes` that divide n, then the
    cofactor left after them, if any (prime unless `primes` ran out
    below its square root, and a valid base either way).
    """
    pairs = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def factorize(n: int) -> MultiIndex:
    """Exponent multi-index of n: factorize(1) = (), factorize(360) = (3, 2, 1).

    Rejects n < 1; n = 0 has no factorization.  Takes one of the two
    paths in the module docstring, so any n whose prime factors fit
    under the sieve cap factors, however large n itself is.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n > MAX_INDEX:
        raise IndexRangeError(f"{n} is beyond the 64-bit index range")
    if n == 1:
        return EMPTY_INDEX
    if n > _limit:  # the cap is read only off the table, where it matters
        cap = _size_cap()
        if n <= cap:
            _grow(n)
    if n <= _limit:
        pairs = []
        spf, primes = _spf, _primes  # in this order, the reverse of _grow's installs
        while n > 1:
            pos = spf.item(n)
            p = primes[pos]
            n, e = n // p, 1  # p divides n: count the further divisions
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((pos, e))
        return MultiIndex._trusted(tuple(pairs))
    _grow(min(math.isqrt(n), cap))
    k = bisect_right(_primes, 1 << 16)
    found = trial_factors(n, islice(_primes, k))  # stops early on smooth n
    m = found[-1][0]
    if m > _primes[k - 1] ** 2:
        # small primes ran out below sqrt(m): a vector remainder (m fits int64)
        # finds the larger table primes dividing m, the only ones tried
        table = _prime_array[k : bisect_right(_primes, math.isqrt(m))]
        found = found[:-1] + trial_factors(m, table[m % table == 0].tolist())
        m = found[-1][0]
    if m > _limit:
        # no table prime up to sqrt(m) divides m: m is prime, or its
        # factors all exceed the cap; either way its position needs
        # the prime table out to m
        if m > cap:
            raise SieveCapError(
                f"factorize({n}) needs primes near {m}, past the cap {cap}; "
                f"raise {SIEVE_CAP_ENV} to allow it"
            )
        _grow(m)
    return MultiIndex._trusted(tuple((bisect_left(_primes, p), e) for p, e in found))


def factorize_all(ns: list[int]) -> list[MultiIndex]:
    """[factorize(n) for n in ns], with the factor table first grown once to the largest n under the cap.

    Growing it n by n instead would double it again and again.
    """
    cap = _size_cap()
    _grow(max((n for n in ns if n <= cap), default=1))
    return [factorize(n) for n in ns]


def index_of(alpha: MultiIndex) -> int:
    """Integer addressed by a multi-index: index_of(()) = 1, index_of((2, 1)) = 12.

    The reconstruction prod_j p_j^alpha_j must fit a signed 64-bit
    integer; anything larger raises IndexRangeError rather than wrapping.
    """
    n = 1
    for pos, e in alpha.pairs:
        p = nth_prime(pos)
        # every prime is at least 2, so e >= 63 overflows; checked first, as p ** e takes forever at huge e
        if e >= 63 or (n := n * p**e) > MAX_INDEX:
            raise IndexRangeError(  # the pairs, not the dense exponents: a late position would spell out its zeros
                f"index_of(pairs {list(map(list, alpha.pairs))}) exceeds the 64-bit index range"
            )
    return n
