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
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

import numpy as np

from .multiindex import MultiIndex
from .series import DirichletPoly, PowerPoly
from .spaces import CoeffSpace


def _space_to_dict(space: CoeffSpace) -> dict:
    return {"dim": space.dim, "norm": space.norm}


def _space_from_dict(obj: Any) -> CoeffSpace:
    if not isinstance(obj, dict) or "dim" not in obj or "norm" not in obj:
        raise ValueError("space must be an object with 'dim' and 'norm'")
    return CoeffSpace(obj["dim"], obj["norm"])


def _fields(poly, keys: list) -> zip:
    """('re', 'im') lists of each key's coefficient, read off one stacked array."""
    stack = np.array([poly[k] for k in keys], dtype=np.complex128).reshape(len(keys), poly.space.dim)
    return zip(stack.real.tolist(), stack.imag.tolist())


def _vectors_from_fields(entries: list, dim: int) -> np.ndarray:
    """(terms, dim) coefficients from the 're' and 'im' lists of the coefficient entries."""
    res = [entry.get("re") for entry in entries]
    ims = [entry.get("im") for entry in entries]
    for re, im in zip(res, ims):
        if not isinstance(re, list) or not isinstance(im, list) or len(re) != dim or len(im) != dim:
            raise ValueError(f"coefficient needs 're' and 'im' lists of length {dim}")
    if not set(map(type, chain.from_iterable(res + ims))) <= {int, float}:  # exact types: json gives bool for true
        re, im = next((re, im) for re, im in zip(res, ims) if not set(map(type, re + im)) <= {int, float})
        raise ValueError(f"'re' and 'im' entries must be numbers, got {re!r} and {im!r}")
    out = np.empty((len(entries), dim), dtype=np.complex128)
    if entries:
        out.real, out.imag = res, ims
    return out


def dirichlet_to_dict(D: DirichletPoly) -> dict:
    keys = D.indices()
    coeffs = [{"n": n, "re": re, "im": im} for n, (re, im) in zip(keys, _fields(D, keys))]
    return {"space": _space_to_dict(D.space), "coeffs": coeffs}


def dirichlet_from_dict(obj: Any) -> DirichletPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("Dirichlet polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    entries = list(obj["coeffs"])
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
    return DirichletPoly(dict(zip(keys, _vectors_from_fields(entries, space.dim))), space)


def power_to_dict(P: PowerPoly) -> dict:
    keys = P.indices()
    coeffs = [
        {"pairs": list(map(list, alpha.pairs)), "re": re, "im": im}
        for alpha, (re, im) in zip(keys, _fields(P, keys))
    ]
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
    if not _are_pair_lists([raw]):
        raise ValueError(f"'pairs' must be a list of [position, exponent] integer pairs, got {raw!r}")
    return MultiIndex.from_pairs(map(tuple, raw))


def _are_pair_lists(raws: list) -> bool:
    """Whether every raw value is a list of [int, int] lists, in C-level passes over all of them."""
    if not set(map(type, raws)) <= {list}:
        return False
    pairs = list(chain.from_iterable(raws))
    # exact types: json gives bool for true
    return set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2} and set(map(type, chain.from_iterable(pairs))) <= {int}


def power_from_dict(obj: Any) -> PowerPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("power polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    entries = list(obj["coeffs"])
    raws = [entry.get("pairs") if isinstance(entry, dict) and "alpha" not in entry else None for entry in entries]
    # a document of well-typed sparse entries is checked in one pass; any other reads entry by entry
    sparse = _are_pair_lists(raws)
    keys: dict[MultiIndex, None] = {}
    for entry, raw in zip(entries, raws):
        alpha = MultiIndex.from_pairs(map(tuple, raw)) if sparse else _power_index(entry)
        if alpha in keys:
            shown = alpha.exponents if "alpha" in entry else list(map(list, alpha.pairs))
            raise ValueError(f"duplicate index {shown}")
        keys[alpha] = None
    return PowerPoly(dict(zip(keys, _vectors_from_fields(entries, space.dim))), space)


def dumps(poly) -> str:
    """One-line JSON document of a polynomial (no indent, so CPython's C encoder runs)."""
    if isinstance(poly, DirichletPoly):
        return json.dumps(dirichlet_to_dict(poly), allow_nan=False)
    if isinstance(poly, PowerPoly):
        return json.dumps(power_to_dict(poly), allow_nan=False)
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
