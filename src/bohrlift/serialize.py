"""JSON encoding of polynomials and norm estimates.

Coefficients are stored as separate real and imaginary float lists so a
dump/load cycle reproduces every float bit-for-bit (json emits shortest
round-trip decimals) and every index exactly.  Coefficient lists are
sorted, so parse -> serialize -> parse is the identity on canonical form.
A power-side index is written sparse, as the [position, exponent] pairs
of its `MultiIndex` (0-based positions increasing, exponents positive),
so a document grows with the nonzero exponents, not with the width;
version-1 documents, which give each index as a dense 'alpha' exponent
list, still load.
Loading rejects what JSON can say but a polynomial cannot mean: booleans
where numbers belong, NaN and Infinity tokens, and (through the
polynomial constructors) numbers that overflow to infinity.

Loading is a few bulk passes: the indices, the pairs of every power
index and the 're' and 'im' lists of every coefficient are each checked
in C-level passes over the whole document, the coefficients convert in
one step, and the polynomial takes over the map `series._store` makes
from that one stack (`_SparsePoly._moved`).  Only a document that fails
a check is read again entry by entry, so an error still names the first
bad entry.
Writing hands each index's stored pair tuples to the C encoder, which
writes them as the same arrays, so the bytes are unchanged.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any

import numpy as np

from .multiindex import MultiIndex
from .series import DirichletPoly, PowerPoly, _store, coeff_rows
from .spaces import CoeffSpace


def _space_to_dict(space: CoeffSpace) -> dict:
    return {"dim": space.dim, "norm": space.norm}


def _space_from_dict(obj: Any) -> CoeffSpace:
    if not isinstance(obj, dict) or "dim" not in obj or "norm" not in obj:
        raise ValueError("space must be an object with 'dim' and 'norm'")
    return CoeffSpace(obj["dim"], obj["norm"])


def _fields(poly, keys: list) -> zip:
    """('re', 'im') lists of each key's coefficient, read off one stacked array."""
    stack = coeff_rows(poly, keys)
    return zip(stack.real.tolist(), stack.imag.tolist())


def _vectors_from_fields(entries: list, dim: int) -> np.ndarray:
    """(terms, dim) coefficients from the 're' and 'im' lists of the coefficient entries.

    Checks and conversion are C-level passes over all fields at once; a
    type error then names the first bad coefficient's lists.
    """
    res = [entry.get("re") for entry in entries]
    ims = [entry.get("im") for entry in entries]
    fields = res + ims
    if not (set(map(type, fields)) <= {list} and set(map(len, fields)) <= {dim}):
        for field in fields:  # lists of a list subclass pass
            if not isinstance(field, list) or len(field) != dim:
                raise ValueError(f"coefficient needs 're' and 'im' lists of length {dim}")
    values = list(chain.from_iterable(fields))
    if not set(map(type, values)) <= {int, float}:  # exact types: json gives bool for true
        re, im = next((re, im) for re, im in zip(res, ims) if not set(map(type, re + im)) <= {int, float})
        raise ValueError(f"'re' and 'im' entries must be numbers, got {re!r} and {im!r}")
    parts = np.array(values, dtype=np.float64).reshape(2, len(entries), dim)
    out = np.empty((len(entries), dim), dtype=np.complex128)
    out.real, out.imag = parts
    return out


def _dirichlet_indices(entries: list) -> list[int]:
    """The 'n' of each coefficient entry, all distinct integers.

    A document of dicts with distinct integer indices is checked in
    C-level passes; any other is read entry by entry, so the error names
    the first bad entry.
    """
    if set(map(type, entries)) <= {dict}:
        ns = list(map(dict.get, entries, repeat("n")))
        if set(map(type, ns)) <= {int} and len(set(ns)) == len(ns):
            return ns
    keys: dict[int, None] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "n" not in entry:
            raise ValueError("each coefficient needs an integer field 'n'")
        n = entry["n"]
        if type(n) is not int:
            raise ValueError(f"index must be an integer, got {n!r}")
        if n in keys:
            raise ValueError(f"duplicate index {n}")
        keys[n] = None
    return list(keys)


def dirichlet_to_dict(D: DirichletPoly) -> dict:
    keys = D.indices()
    coeffs = [{"n": n, "re": re, "im": im} for n, (re, im) in zip(keys, _fields(D, keys))]
    return {"space": _space_to_dict(D.space), "coeffs": coeffs}


def dirichlet_from_dict(obj: Any) -> DirichletPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("Dirichlet polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    entries = list(obj["coeffs"])
    keys = _dirichlet_indices(entries)
    stack = _vectors_from_fields(entries, space.dim)
    DirichletPoly._check_keys(keys)
    return DirichletPoly._moved(_store(keys, stack), space)


def power_to_dict(P: PowerPoly) -> dict:
    """The power document as a tree of dicts and lists; each 'pairs' is the index's tuple of (position, exponent) tuples, which JSON writes as arrays."""
    keys = P.indices()
    coeffs = [{"pairs": alpha.pairs, "re": re, "im": im} for alpha, (re, im) in zip(keys, _fields(P, keys))]
    return {"space": _space_to_dict(P.space), "coeffs": coeffs}


def _power_index(entry: Any) -> MultiIndex:
    """The multi-index of a coefficient entry: sparse 'pairs', or a version-1 dense 'alpha' list."""
    if not isinstance(entry, dict) or ("pairs" in entry) == ("alpha" in entry):
        raise ValueError("each coefficient needs exactly one of 'pairs' and 'alpha'")
    if "alpha" in entry:
        alpha_raw = entry["alpha"]
        if not isinstance(alpha_raw, list) or not set(map(type, alpha_raw)) <= {int}:
            raise ValueError(f"'alpha' must be a list of integers, got {alpha_raw!r}")
        return MultiIndex(alpha_raw)
    raw = entry["pairs"]
    if _pair_values([raw]) is None:
        raise ValueError(f"'pairs' must be a list of [position, exponent] integer pairs, got {raw!r}")
    return MultiIndex.from_pairs(map(tuple, raw))


def _pair_values(raws: list) -> list[int] | None:
    """The flat [p0, e0, p1, e1, ...] of raw values that are all lists of [int, int] lists, else None; C-level passes.

    Tuples pass as lists do, at both levels, so the tree `power_to_dict` gives loads again.
    """
    if not set(map(type, raws)) <= {list, tuple}:
        return None
    pairs = list(chain.from_iterable(raws))
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
        return None
    flat = list(chain.from_iterable(pairs))
    return flat if set(map(type, flat)) <= {int} else None  # exact types: json gives bool for true


def _sparse_indices(raws: list) -> list[MultiIndex] | None:
    """The multi-indices of 'pairs' lists if all are well typed, canonical and distinct, else None.

    C-level and numpy passes over all pairs at once: exponents positive,
    positions non-negative and rising within each list, no two lists
    equal.  A position past 64 bits, valid but not int64, gives None.
    """
    flat = _pair_values(raws)
    if flat is None:
        return None
    try:
        values = np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return None
    positions, exponents = values.T
    rising = np.diff(positions) > 0
    starts = np.cumsum(list(map(len, raws)), dtype=np.intp)[:-1]  # a step into the next list may fall
    rising[starts[(starts > 0) & (starts < len(positions))] - 1] = True
    keys = [tuple(map(tuple, raw)) for raw in raws]
    if not ((exponents > 0).all() and (positions >= 0).all() and rising.all()) or len(set(keys)) < len(keys):
        return None
    return list(map(MultiIndex._trusted, keys))


def _power_indices(entries: list) -> list[MultiIndex]:
    """The multi-index of each coefficient entry, all distinct.

    A document of canonical, distinct sparse entries is checked in bulk
    (`_sparse_indices`); any other is read entry by entry, so the error
    names the first bad entry.
    """
    raws = [entry.get("pairs") if isinstance(entry, dict) and "alpha" not in entry else None for entry in entries]
    bulk = _sparse_indices(raws)
    if bulk is not None:
        return bulk
    keys: dict[MultiIndex, None] = {}
    for entry in entries:
        alpha = _power_index(entry)
        if alpha in keys:
            shown = alpha.exponents if "alpha" in entry else list(map(list, alpha.pairs))
            raise ValueError(f"duplicate index {shown}")
        keys[alpha] = None
    return list(keys)


def power_from_dict(obj: Any) -> PowerPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("power polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    entries = list(obj["coeffs"])
    keys = _power_indices(entries)
    return PowerPoly._moved(_store(keys, _vectors_from_fields(entries, space.dim)), space)


def dumps(poly) -> str:
    """One-line JSON document of a polynomial (no indent, so CPython's C encoder runs)."""
    if isinstance(poly, DirichletPoly):
        return json.dumps(dirichlet_to_dict(poly), allow_nan=False, check_circular=False)
    if isinstance(poly, PowerPoly):
        return json.dumps(power_to_dict(poly), allow_nan=False, check_circular=False)
    raise TypeError(f"cannot serialize {type(poly).__name__}")


def loads_dirichlet(text: str) -> DirichletPoly:
    return dirichlet_from_dict(_parse(text))


def loads_power(text: str) -> PowerPoly:
    return power_from_dict(_parse(text))


def _reject_constant(token: str):
    raise ValueError(f"invalid JSON: non-finite number {token}")


def _parse(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON: nested too deeply") from exc
