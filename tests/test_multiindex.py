"""Multi-index container invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlift import EMPTY_INDEX, MultiIndex, bohr_lift, factorize, gallery


def test_empty_index():
    assert EMPTY_INDEX.exponents == ()
    assert EMPTY_INDEX.width == 0
    assert EMPTY_INDEX.degree == 0
    assert not EMPTY_INDEX
    assert MultiIndex(()) == EMPTY_INDEX


def test_trailing_zeros_dropped():
    a = MultiIndex((2, 0, 1, 0, 0))
    assert a.exponents == (2, 0, 1)
    assert a.width == 3
    assert a.degree == 3
    assert a == MultiIndex((2, 0, 1))


def test_sparse_pairs():
    a = MultiIndex((0, 3, 0, 0, 2))
    assert a.pairs == ((1, 3), (4, 2))
    assert a[0] == 0
    assert a[1] == 3
    assert a[4] == 2
    assert a[100] == 0


def test_unit():
    e2 = MultiIndex.unit(2)
    assert e2.exponents == (0, 0, 1)
    assert e2.degree == 1


def test_from_pairs_validation():
    assert MultiIndex.from_pairs([(0, 1), (3, 2)]).exponents == (1, 0, 0, 2)
    with pytest.raises(ValueError):
        MultiIndex.from_pairs([(3, 2), (0, 1)])  # positions must increase
    with pytest.raises(ValueError):
        MultiIndex.from_pairs([(0, 0)])  # exponents must be positive
    with pytest.raises(ValueError):
        MultiIndex.from_pairs([(-1, 1)])


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiIndex((1, -2))
    # the first negative entry is named, not the smallest
    with pytest.raises(ValueError, match=r"got -1 at position 2$"):
        MultiIndex((3, 0, -1, -7))


def test_ordering_is_dense_lex():
    a = MultiIndex((1, 2))
    b = MultiIndex((2,))
    assert a < b
    assert sorted([b, a]) == [a, b]


# sparse indices with early and late coordinates; each one's prefixes join the sample
_sparse = st.dictionaries(
    st.one_of(st.integers(0, 6), st.integers(400, 900)), st.integers(1, 3), max_size=5
).map(lambda d: MultiIndex.from_pairs(sorted(d.items())))


@settings(max_examples=200)
@given(st.lists(_sparse, max_size=12))
def test_order_key_gives_the_dense_lex_order(indices):
    keys = [EMPTY_INDEX]
    for alpha in indices:
        keys += [MultiIndex.from_pairs(alpha.pairs[:k]) for k in range(1, len(alpha.pairs) + 1)]
    by_lt = sorted(keys)
    assert by_lt == sorted(keys, key=MultiIndex.order_key)
    assert [a.exponents for a in by_lt] == sorted(a.exponents for a in keys)


def test_power_indices_keep_the_dense_lex_order_on_a_wide_lift():
    P = bohr_lift(gallery("random_unimodular", 3000, seed=1))
    assert P.width > 400
    assert P.indices() == sorted(P.coeffs, key=lambda alpha: alpha.exponents)


def test_hash_and_dict_keys():
    d = {MultiIndex((1, 0, 2)): "x"}
    assert d[MultiIndex((1, 0, 2, 0))] == "x"


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_roundtrip_through_pairs(exps):
    a = MultiIndex(tuple(exps))
    assert MultiIndex.from_pairs(a.pairs) == a
    assert MultiIndex(a.exponents) == a
    assert a.degree == sum(exps)


def test_repr_follows_the_support_and_evaluates_back():
    # the pairs, not the dense tuple: 999983 is the 78,498th prime
    alpha = factorize(999983)
    assert repr(alpha) == "MultiIndex.from_pairs(((78497, 1),))"
    for index in (alpha, EMPTY_INDEX, MultiIndex((2, 0, 1)), factorize(2**5 * 3 * 999983)):
        assert len(repr(index)) < 100
        assert eval(repr(index)) == index
