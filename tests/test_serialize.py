"""JSON round trips for both polynomial encodings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlift import (
    EMPTY_INDEX,
    CoeffSpace,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    bohr_lift,
    dumps,
    factorize,
    gallery,
    loads_dirichlet,
    loads_power,
)
from bohrlift.serialize import dirichlet_from_dict, dirichlet_to_dict, power_from_dict, power_to_dict
from conftest import random_dirichlet


def test_dirichlet_roundtrip(rng):
    for dim in (1, 2, 4):
        D = random_dirichlet(rng, max_index=3000, dim=dim)
        assert loads_dirichlet(dumps(D)) == D


def test_power_roundtrip(rng):
    P = bohr_lift(random_dirichlet(rng, max_index=500, dim=3))
    assert loads_power(dumps(P)) == P


def _wide_vector_poly():
    rng = np.random.default_rng(7)
    ns = [4999, *rng.choice(np.arange(1, 5000), size=400, replace=False).tolist()]  # 4999 is the 669th prime
    return DirichletPoly({n: rng.standard_normal(3) + 1j * rng.standard_normal(3) for n in ns}, CoeffSpace(3, "linf"))


@pytest.mark.parametrize("make", [lambda: gallery("random_unimodular", 3000, seed=3), _wide_vector_poly])
def test_wide_roundtrip_is_exact_and_only_whitespace_moved(make):
    D = make()
    P = bohr_lift(D)
    assert P.width > 400
    for poly, to_dict, load in ((D, dirichlet_to_dict, loads_dirichlet), (P, power_to_dict, loads_power)):
        text = dumps(poly)
        assert "\n" not in text
        assert load(text) == poly
        # same content, coefficient order included, as the indented encoding
        assert json.loads(text) == json.loads(json.dumps(to_dict(poly), indent=2))


@pytest.mark.parametrize(
    "alpha, message",
    [
        ("[0, -1, -5]", "exponents must be non-negative, got -1 at position 1"),
        ("[false, true]", "'alpha' must be a list of integers, got [False, True]"),
        ("[1, 2.0]", "'alpha' must be a list of integers, got [1, 2.0]"),
    ],
)
def test_exponent_rejections_keep_their_messages(alpha, message):
    with pytest.raises(ValueError) as info:
        loads_power(_doc(f'"alpha": {alpha}'))
    assert str(info.value) == message


def test_schema_shape():
    D = DirichletPoly({2: [1.0, -1.0j]}, CoeffSpace(2, "linf"))
    doc = json.loads(dumps(D))
    assert doc["space"] == {"dim": 2, "norm": "linf"}
    assert doc["coeffs"] == [{"n": 2, "re": [1.0, 0.0], "im": [0.0, -1.0]}]
    P = PowerPoly({MultiIndex((0, 2)): 5.0})
    docp = json.loads(dumps(P))
    assert docp["coeffs"][0]["pairs"] == [[1, 2]]


def test_version_one_documents_still_load():
    # dense 'alpha' exponent lists, as written before the sparse 'pairs' encoding
    doc = '{"space": {"dim": 1, "norm": "l2"}, "coeffs": [{"alpha": [0, 2], "re": [5.0], "im": [0.0]}]}'
    assert loads_power(doc) == PowerPoly({MultiIndex((0, 2)): 5.0})
    P = bohr_lift(_wide_vector_poly())
    dense = {
        "space": {"dim": 3, "norm": "linf"},
        "coeffs": [
            {"alpha": list(alpha.exponents), "re": P[alpha].real.tolist(), "im": P[alpha].imag.tolist()}
            for alpha in P.indices()
        ],
    }
    assert loads_power(json.dumps(dense)) == P
    # one document may mix the two encodings, entry by entry
    mixed = '{"space": {"dim": 1, "norm": "l2"}, "coeffs": [{"alpha": [0, 2], "re": [5.0], "im": [0.0]}, {"pairs": [[3, 1]], "re": [1.0], "im": [-1.0]}]}'
    assert loads_power(mixed) == PowerPoly({MultiIndex((0, 2)): 5.0, MultiIndex.unit(3): 1 - 1j})


def test_power_documents_write_sparse_pairs():
    P = PowerPoly({MultiIndex.unit(99_999): 1.0, EMPTY_INDEX: 2.0, MultiIndex((3, 0, 1)): 1j})
    assert json.loads(dumps(P))["coeffs"] == [
        {"pairs": [], "re": [2.0], "im": [0.0]},
        {"pairs": [[99999, 1]], "re": [1.0], "im": [0.0]},
        {"pairs": [[0, 3], [2, 1]], "re": [0.0], "im": [1.0]},
    ]  # dense lexicographic order of the exponent tuples
    # the document grows with the stored pairs, not with the width
    assert len(dumps(P)) < 250


def test_dirichlet_documents_keep_their_bytes():
    D = DirichletPoly(
        {35: [-1.5, 1e300j], 1: [1.0, complex(-0.0, 0.0)], 6: [0.1 + 2j, 5e-324], 2: [1 / 3, -2.5e-7j]},
        CoeffSpace(2, "l1"),
    )
    assert dumps(D) == (
        '{"space": {"dim": 2, "norm": "l1"}, "coeffs": ['
        '{"n": 1, "re": [1.0, -0.0], "im": [0.0, 0.0]}, '
        '{"n": 2, "re": [0.3333333333333333, -0.0], "im": [0.0, -2.5e-07]}, '
        '{"n": 6, "re": [0.1, 5e-324], "im": [2.0, 0.0]}, '
        '{"n": 35, "re": [-1.5, 0.0], "im": [0.0, 1e+300]}]}'
    )


@pytest.mark.parametrize(
    "pairs, message",
    [
        ("[[1, 2], [1, 3]]", "pairs must have increasing positions and positive exponents: ((1, 2), (1, 3))"),
        ("[[4, 1], [2, 1]]", "pairs must have increasing positions and positive exponents: ((4, 1), (2, 1))"),
        ("[[0, 0]]", "pairs must have increasing positions and positive exponents: ((0, 0),)"),
        ("[[-1, 1]]", "pairs must have increasing positions and positive exponents: ((-1, 1),)"),
        ("[[0, true]]", "'pairs' must be a list of [position, exponent] integer pairs, got [[0, True]]"),
        ("[[0, 1.0]]", "'pairs' must be a list of [position, exponent] integer pairs, got [[0, 1.0]]"),
        ("[[0, 1, 2]]", "'pairs' must be a list of [position, exponent] integer pairs, got [[0, 1, 2]]"),
        ("[3]", "'pairs' must be a list of [position, exponent] integer pairs, got [3]"),
        ('{"0": 1}', "'pairs' must be a list of [position, exponent] integer pairs, got {'0': 1}"),
    ],
)
def test_pair_rejections_name_the_bad_entry(pairs, message):
    # a valid entry first: a fault in a later entry is still named by that entry
    doc = f'{{"space": {{"dim": 1, "norm": "l2"}}, "coeffs": [{{"pairs": [[0, 1]], "re": [1.0], "im": [0.0]}}, {{"pairs": {pairs}, "re": [1.0], "im": [0.0]}}]}}'
    with pytest.raises(ValueError) as info:
        loads_power(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ['"pairs": [[0, 1]], "alpha": [1]', '"n": 2', '"re0": 1'])
def test_entry_needs_exactly_one_index_encoding(key):
    with pytest.raises(ValueError) as info:
        loads_power(_doc(key))
    assert str(info.value) == "each coefficient needs exactly one of 'pairs' and 'alpha'"


@pytest.mark.parametrize("second", ['"pairs": [[1, 1]]', '"alpha": [0, 1]'])
def test_duplicate_power_index_rejected_in_either_encoding(second):
    doc = f'{{"space": {{"dim": 1, "norm": "l2"}}, "coeffs": [{{"pairs": [[1, 1]], "re": [1.0], "im": [0.0]}}, {{{second}, "re": [2.0], "im": [0.0]}}]}}'
    with pytest.raises(ValueError, match="duplicate index"):
        loads_power(doc)


@st.composite
def _power_polys(draw):
    dim = draw(st.integers(1, 3))
    index = st.dictionaries(st.integers(0, 10**5), st.integers(1, 40), max_size=4).map(
        lambda d: MultiIndex.from_pairs(sorted(d.items()))
    )
    value = st.lists(st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)
    coeffs = draw(st.dictionaries(index, value, max_size=8))
    return PowerPoly(coeffs, CoeffSpace(dim, draw(st.sampled_from(["l1", "l2", "linf"]))))


@settings(max_examples=100, derandomize=True)
@given(_power_polys())
def test_power_roundtrip_property(P):
    assert loads_power(dumps(P)) == P


def test_malformed_input_rejected():
    with pytest.raises(ValueError):
        loads_dirichlet("not json at all {{{")
    with pytest.raises(ValueError):
        loads_dirichlet(json.dumps({"coeffs": []}))  # missing space
    with pytest.raises(ValueError):
        loads_dirichlet(json.dumps({"space": {"dim": 1, "norm": "l2"}, "coeffs": [{"n": 0, "re": [1], "im": [0]}]}))
    with pytest.raises(ValueError):
        loads_power(json.dumps({"space": {"dim": 1, "norm": "l2"}, "coeffs": [{"alpha": [-1], "re": [1], "im": [0]}]}))


def _doc(key, re="[1.0]", im="[0.0]", dim="1"):
    return f'{{"space": {{"dim": {dim}, "norm": "l2"}}, "coeffs": [{{{key}, "re": {re}, "im": {im}}}]}}'


@pytest.mark.parametrize(
    "loader, bad",
    [
        (loads_dirichlet, dict(key='"n": true')),
        (loads_dirichlet, dict(dim="true")),
        (loads_power, dict(key='"alpha": [false, true]')),
        (loads_dirichlet, dict(re="[true]")),
        (loads_dirichlet, dict(im='["0.5"]')),
        (loads_dirichlet, dict(re="[NaN]")),
        (loads_power, dict(im="[-Infinity]")),
        (loads_dirichlet, dict(re="[1e999]")),  # parses to inf
    ],
)
def test_json_boundary_rejects_meaningless_values(loader, bad):
    key = '"n": 2' if loader is loads_dirichlet else '"alpha": [1]'
    assert len(loader(_doc(key))) == 1  # the document is valid without the bad field
    with pytest.raises(ValueError):
        loader(_doc(**{"key": key, **bad}))


@pytest.mark.parametrize(
    "re, im, message",
    [
        ('[1.0, true]', '[0.0, 0.0]', "'re' and 'im' entries must be numbers, got [1.0, True] and [0.0, 0.0]"),
        ('[1.0, 2.0]', '[null, 0.0]', "'re' and 'im' entries must be numbers, got [1.0, 2.0] and [None, 0.0]"),
        ('[1.0]', '[0.0, 0.0]', "coefficient needs 're' and 'im' lists of length 2"),
        ('{"a": 1}', '[0.0, 0.0]', "coefficient needs 're' and 'im' lists of length 2"),
    ],
)
@pytest.mark.parametrize("loader, key", [(loads_dirichlet, '"n": 3'), (loads_power, '"alpha": [0, 1]')])
def test_field_rejections_name_the_bad_coefficient(loader, key, re, im, message):
    # the fields of every coefficient are read in one pass; a fault in a later
    # coefficient still names that coefficient's lists
    good = '"re": [1.0, 2.0], "im": [0.5, -0.5]'
    first = '"n": 2' if loader is loads_dirichlet else '"alpha": [1]'
    doc = f'{{"space": {{"dim": 2, "norm": "l2"}}, "coeffs": [{{{first}, {good}}}, {{{key}, "re": {re}, "im": {im}}}]}}'
    with pytest.raises(ValueError) as info:
        loader(doc)
    assert str(info.value) == message


def _long_doc(last: str, power: bool) -> str:
    """A 3,000-entry document: 2,999 valid scalar entries, then the entry with fields `last`."""
    if power:
        good = [json.dumps({"pairs": [list(p) for p in factorize(n).pairs], "re": [0.25 * n], "im": [0.5]}) for n in range(1, 3000)]
    else:
        good = [json.dumps({"n": n, "re": [0.25 * n], "im": [0.5]}) for n in range(1, 3000)]
    return '{"space": {"dim": 1, "norm": "l2"}, "coeffs": [%s]}' % ", ".join([*good, "{%s}" % last])


_ONE = '"re": [1.0], "im": [0.0]'


@pytest.mark.parametrize(
    "power, last, message",
    [
        (True, f'"pairs": [[1, 2], [1, 3]], {_ONE}', "pairs must have increasing positions and positive exponents: ((1, 2), (1, 3))"),
        (True, f'"pairs": [[4, 1], [2, 1]], {_ONE}', "pairs must have increasing positions and positive exponents: ((4, 1), (2, 1))"),
        (True, f'"pairs": [[0, 0]], {_ONE}', "pairs must have increasing positions and positive exponents: ((0, 0),)"),
        (True, f'"pairs": [[-1, 1]], {_ONE}', "pairs must have increasing positions and positive exponents: ((-1, 1),)"),
        (True, f'"pairs": [[0, true]], {_ONE}', "'pairs' must be a list of [position, exponent] integer pairs, got [[0, True]]"),
        (True, f'"pairs": [[0, 1]], {_ONE}', "duplicate index [[0, 1]]"),  # the index of 2
        (True, '"pairs": [[5000, 1]], "re": [true], "im": [0.0]', "'re' and 'im' entries must be numbers, got [True] and [0.0]"),
        (True, '"pairs": [[5000, 1]], "re": [1.0], "im": ["0.5"]', "'re' and 'im' entries must be numbers, got [1.0] and ['0.5']"),
        (True, '"pairs": [[5000, 1]], "re": [1.0, 2.0], "im": [0.0, 0.0]', "coefficient needs 're' and 'im' lists of length 1"),
        (False, f'"n": 0, {_ONE}', "Dirichlet indices start at 1, got 0"),
        (False, f'"n": {2**63}, {_ONE}', "index 9223372036854775808 is beyond the 64-bit range"),
        (False, f'"n": 5, {_ONE}', "duplicate index 5"),
        (False, f'"n": true, {_ONE}', "index must be an integer, got True"),
        (False, '"n": 3000, "re": [true], "im": [0.0]', "'re' and 'im' entries must be numbers, got [True] and [0.0]"),
        (False, '"n": 3000, "re": [1.0], "im": ["0.5"]', "'re' and 'im' entries must be numbers, got [1.0] and ['0.5']"),
        (False, '"n": 3000, "re": [1.0, 2.0], "im": [0.0, 0.0]', "coefficient needs 're' and 'im' lists of length 1"),
        (False, '"n": 0, "re": [true], "im": [0.0]', "'re' and 'im' entries must be numbers, got [True] and [0.0]"),  # fields before range
    ],
)
def test_bulk_loaders_reject_a_bad_last_entry_as_the_entry_loop_does(power, last, message):
    # the checks run over all entries at once; a fault in the last of 3,000 still gives the entry's own error
    with pytest.raises(ValueError) as info:
        (loads_power if power else loads_dirichlet)(_long_doc(last, power))
    assert str(info.value) == message


def test_a_position_past_64_bits_still_loads():
    P = loads_power(_long_doc(f'"pairs": [[{2**70}, 1]], {_ONE}', True))
    assert len(P) == 3000 and P.width == 2**70 + 1
    assert P[MultiIndex.unit(2**70)][0] == 1.0


def test_dict_trees_load_again_without_json(rng):
    # power_to_dict holds each index's pair tuples, which the loader takes as it takes lists
    D = random_dirichlet(rng, max_index=3000, dim=2)
    P = bohr_lift(D)
    assert dirichlet_from_dict(dirichlet_to_dict(D)) == D
    assert power_from_dict(power_to_dict(P)) == P
    doc = power_to_dict(P)
    doc["coeffs"][-1]["pairs"] = doc["coeffs"][0]["pairs"]  # the entry loop takes tuples too
    with pytest.raises(ValueError, match="duplicate index"):
        power_from_dict(doc)


def test_fields_load_into_the_coefficients_exactly():
    doc = '{"space": {"dim": 2, "norm": "l1"}, "coeffs": [{"n": 2, "re": [1, -0.0], "im": [0.1, 5e-324]}, {"n": 7, "re": [0, 3], "im": [-2, 0]}]}'
    D = loads_dirichlet(doc)
    assert np.array_equal(D[2], np.array([1.0 + 0.1j, complex(-0.0, 5e-324)]))
    assert np.signbit(D[2][1].real)  # signed zeros load as written
    assert np.array_equal(D[7], np.array([-2.0j, 3.0]))
    assert not D[2].flags.writeable and not np.shares_memory(D[2], D[7])
    assert loads_dirichlet(dumps(D)) == D


def test_duplicate_keys_rejected():
    doc = {
        "space": {"dim": 1, "norm": "l2"},
        "coeffs": [
            {"n": 2, "re": [1.0], "im": [0.0]},
            {"n": 2, "re": [3.0], "im": [0.0]},
        ],
    }
    with pytest.raises(ValueError):
        loads_dirichlet(json.dumps(doc))


def test_wrong_kind_rejected():
    D = DirichletPoly({2: 1.0})
    with pytest.raises(ValueError):
        loads_power(dumps(D))


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=10**6),
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        min_size=0,
        max_size=10,
    )
)
def test_roundtrip_property(raw):
    D = DirichletPoly({n: complex(a, b) for n, (a, b) in raw.items()})
    assert loads_dirichlet(dumps(D)) == D
