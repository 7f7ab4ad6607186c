"""Factorization and its inverse over the prime multi-index encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlift import EMPTY_INDEX, MAX_INDEX, MultiIndex, factorize, index_of, nth_prime, primes_up_to
from bohrlift.errors import IndexRangeError, SieveCapError
from bohrlift import primes as primes_module
from bohrlift.primes import SIEVE_CAP_ENV, factorize_all, sieve_limit, trial_factors


def test_factorize_known_values():
    assert factorize(1) == EMPTY_INDEX
    assert factorize(2).exponents == (1,)
    assert factorize(5).exponents == (0, 0, 1)
    assert factorize(6).exponents == (1, 1)
    assert factorize(12).exponents == (2, 1)
    assert factorize(360).exponents == (3, 2, 1)
    assert factorize(97).pairs == ((24, 1),)


def test_index_of_known_values():
    assert index_of(EMPTY_INDEX) == 1
    assert index_of(MultiIndex((1,))) == 2
    assert index_of(MultiIndex((0, 0, 1))) == 5
    assert index_of(MultiIndex((2, 1))) == 12
    assert index_of(MultiIndex((3, 2, 1))) == 360


def test_nth_prime():
    assert [nth_prime(k) for k in range(6)] == [2, 3, 5, 7, 11, 13]
    assert nth_prime(24) == 97
    assert nth_prime(167) == 997


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_roundtrip_range():
    for n in range(1, 20001):
        assert index_of(factorize(n)) == n


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-3)
    with pytest.raises(IndexRangeError):
        factorize(MAX_INDEX + 1)


def test_index_of_overflow():
    # 2^63 itself is already past the signed-64 cap
    with pytest.raises(IndexRangeError):
        index_of(MultiIndex((63,)))
    # a wide product of large primes overflows too
    with pytest.raises(IndexRangeError):
        index_of(MultiIndex.from_pairs([(k, 5) for k in range(40, 48)]))


def test_index_of_refuses_a_huge_exponent_before_computing_the_power():
    # 2 ** (10 ** 30) would never finish
    with pytest.raises(IndexRangeError):
        index_of(MultiIndex.from_pairs([(0, 10**30)]))
    with pytest.raises(IndexRangeError):
        index_of(MultiIndex.from_pairs([(3, 1), (5, 63)]))
    assert index_of(MultiIndex.from_pairs([(0, 62)])) == 2**62


def test_nth_prime_reaches_every_prime_under_the_cap(monkeypatch):
    # the growth bound k (ln k + ln ln k) overshoots the cap for the last primes under it; a fresh
    # table (as in a new process reading a lifted document) must still reach them
    for name, fresh in (("_spf", np.zeros(2, dtype=np.int32)), ("_primes", []), ("_prime_array", np.zeros(0, dtype=np.int64)), ("_limit", 1)):
        monkeypatch.setattr(primes_module, name, fresh)  # restored after the test, with the table it grows
    monkeypatch.setenv(SIEVE_CAP_ENV, str(1 << 16))
    assert nth_prime(6541) == 65521  # the largest prime below 2^16
    with pytest.raises(SieveCapError, match="position 6542 lies past the cap 65536"):
        nth_prime(6542)
    # a position whose prime is surely past the cap fails without growing the table
    monkeypatch.setenv(SIEVE_CAP_ENV, str(1 << 20))
    with pytest.raises(SieveCapError, match="position 1000000 lies past the cap 1048576"):
        nth_prime(10**6)
    assert sieve_limit() == 1 << 16


def _fresh_table(monkeypatch):
    # an empty table, as in a new process; the one it replaces is restored after the test
    for name, fresh in (("_spf", np.zeros(2, dtype=np.int32)), ("_primes", []), ("_prime_array", np.zeros(0, dtype=np.int64)), ("_limit", 1)):
        monkeypatch.setattr(primes_module, name, fresh)


def _check_positions():
    # the table holds the position of each n's smallest prime factor, checked against a plain sieve
    limit = sieve_limit()
    reference = np.arange(limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        if reference[p] == p:
            block = reference[p * p :: p]
            np.minimum(block, p, out=block)
    spf, primes = primes_module._spf, primes_module._primes
    assert len(spf) == limit + 1
    assert np.array_equal(np.asarray(primes)[spf[2:]], reference[2:])
    assert np.array_equal(spf[primes], np.arange(len(primes)))
    assert primes == np.flatnonzero(reference == np.arange(limit + 1))[2:].tolist()


def test_table_holds_smallest_prime_factor_positions(monkeypatch):
    _fresh_table(monkeypatch)
    primes_up_to(10**5)
    assert sieve_limit() == 10**5
    _check_positions()
    before = primes_module._spf.copy()
    factorize(250_007)  # a second growth, past the first table: every position stays put
    assert sieve_limit() >= 250_007
    _check_positions()
    assert np.array_equal(primes_module._spf[: len(before)], before)


def test_batch_factorization_matches_the_scalar_walk(monkeypatch):
    monkeypatch.setenv(SIEVE_CAP_ENV, str(1 << 21))  # keeps the table cheap to grow
    _fresh_table(monkeypatch)
    ns = list(range(1, 3001))
    assert factorize_all(ns) == [factorize(n) for n in ns]
    # below the table, just past it, and far past it (giants split by trial division)
    for n in (97, 360360, sieve_limit(), sieve_limit() + 1, 3 * 1999993, 8 * 65537 * 1000003, 2**62, 3**39, MAX_INDEX):
        assert factorize_all([n]) == [factorize(n)]
        assert index_of(factorize(n)) == n


def test_batch_factorization_grows_the_table_once(monkeypatch):
    # one growth to the largest n; doubling the table n by n would stop at a power of two
    _fresh_table(monkeypatch)
    ns = list(range(1, 300_001))
    assert len(factorize_all(ns)) == len(ns)
    assert sieve_limit() == 300_000


def test_large_prime_factor_stays_sparse():
    # 2 * 999983 has a huge largest prime factor; pairs stay short
    alpha = factorize(2 * 999983)
    assert len(alpha.pairs) == 2
    assert index_of(alpha) == 2 * 999983


def test_smooth_giants_roundtrip():
    # far past the factor table, but every prime factor is small
    for n in (2**40 * 3**5 * 101, 10**12, 2**62, 3**39, 999983 * 2**20):
        assert index_of(factorize(n)) == n


def test_prime_past_cap_fails_loudly():
    from bohrlift.errors import SieveCapError

    with pytest.raises(SieveCapError):
        factorize(2**61 - 1)  # Mersenne prime, far past any sane table


def test_trial_factors_ends_with_the_cofactor():
    assert trial_factors(360, [2, 3, 5, 7]) == ((2, 3), (3, 2), (5, 1))
    assert trial_factors(2 * 7 * 11, [2, 3]) == ((2, 1), (77, 1))  # primes ran out below sqrt(77)
    assert trial_factors(1, [2]) == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_trial_factors_needs_only_the_primes_that_divide(n):
    # factorize past the table trial-divides by the dividing table primes alone
    primes = primes_up_to(2000)  # runs out below sqrt(n) for the larger n
    assert trial_factors(n, primes) == trial_factors(n, [p for p in primes if n % p == 0])


def test_past_the_table_only_dividing_primes_are_tried(monkeypatch):
    monkeypatch.setenv(SIEVE_CAP_ENV, str(1 << 21))  # keeps the table cheap to grow
    seen = []

    def recording(n, primes):  # keeps the primes trial division takes
        tried = []
        seen.append(tried)
        return trial_factors(n, (tried.append(p) or p for p in primes))

    monkeypatch.setattr(primes_module, "trial_factors", recording)
    # smooth: the primes below 2^16 finish the job, stopping at the first
    # prime past the square root of what is left
    assert factorize(2**62).pairs == ((0, 62),)
    assert seen == [[2, 3]]
    # 65537 is the first prime past 2^16; the larger table primes are
    # searched by a vector remainder and only the one dividing n is tried
    seen.clear()
    assert factorize(8 * 65537 * 1000003).pairs == ((0, 3), (6542, 1), (78498, 1))
    assert [len(primes) for primes in seen] == [6542, 1] and seen[1] == [65537]
    # no table prime divides the cofactor, and the error text names it as before
    seen.clear()
    n = 2**5 * 3 * 16777259 * 16777289
    with pytest.raises(SieveCapError) as info:
        factorize(n)
    assert str(info.value) == (
        f"factorize({n}) needs primes near 281476922870851, past the cap {1 << 21}; "
        f"raise {SIEVE_CAP_ENV} to allow it"
    )
    assert seen[-1] == []


def test_giant_with_a_prime_cofactor_under_the_cap_grows_the_table():
    # 16777213 is the largest prime below 2^24, the default cap
    assert factorize(3 * 16777213).pairs == ((1, 1), (1077870, 1))


def test_two_prime_factors_past_the_cap_raise():
    with pytest.raises(SieveCapError, match="needs primes near 281476922870851, past the cap"):
        factorize(16777259 * 16777289)


def test_lowered_cap_still_factors_what_the_table_covers(monkeypatch):
    primes_up_to(10**6)
    monkeypatch.setenv(SIEVE_CAP_ENV, "1024")
    assert factorize(999983 * 2**25).pairs == ((0, 25), (78497, 1))
    # 2003 lies past the lowered cap but inside the table
    assert factorize(2003 * 999983 * 2**25).pairs == ((0, 25), (303, 1), (78497, 1))


def test_degree_additivity(rng):
    for _ in range(300):
        a = int(rng.integers(1, 10**6))
        b = int(rng.integers(1, 10**6))
        assert factorize(a * b).degree == factorize(a).degree + factorize(b).degree


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**7))
def test_roundtrip_property(n):
    assert index_of(factorize(n)) == n
