"""JSON round trips for both polynomial encodings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlift import (
    CoeffSpace,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    bohr_lift,
    dumps,
    loads_dirichlet,
    loads_power,
)
from conftest import random_dirichlet


def test_dirichlet_roundtrip(rng):
    for dim in (1, 2, 4):
        D = random_dirichlet(rng, max_index=3000, dim=dim)
        assert loads_dirichlet(dumps(D)) == D


def test_power_roundtrip(rng):
    P = bohr_lift(random_dirichlet(rng, max_index=500, dim=3))
    assert loads_power(dumps(P)) == P


def test_schema_shape():
    D = DirichletPoly({2: [1.0, -1.0j]}, CoeffSpace(2, "linf"))
    doc = json.loads(dumps(D))
    assert doc["space"] == {"dim": 2, "norm": "linf"}
    assert doc["coeffs"] == [{"n": 2, "re": [1.0, 0.0], "im": [0.0, -1.0]}]
    P = PowerPoly({MultiIndex((0, 2)): 5.0})
    docp = json.loads(dumps(P))
    assert docp["coeffs"][0]["alpha"] == [0, 2]


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
