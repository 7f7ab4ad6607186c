"""JSON encoding of polynomials and norm estimates.

Coefficients are stored as separate real and imaginary float lists so a
dump/load cycle reproduces every float bit-for-bit (json emits shortest
round-trip decimals) and every index exactly.  Coefficient lists are
sorted, so parse -> serialize -> parse is the identity on canonical form.
Loading rejects what JSON can say but a polynomial cannot mean: booleans
where numbers belong, NaN and Infinity tokens, and (through the
polynomial constructors) numbers that overflow to infinity.
"""

from __future__ import annotations

import json
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


def _vector_fields(v: np.ndarray) -> dict:
    return {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}


def _vector_from_fields(entry: dict, dim: int) -> np.ndarray:
    re = entry.get("re")
    im = entry.get("im")
    if not isinstance(re, list) or not isinstance(im, list) or len(re) != dim or len(im) != dim:
        raise ValueError(f"coefficient needs 're' and 'im' lists of length {dim}")
    if not set(map(type, re + im)) <= {int, float}:  # exact types: json gives bool for true
        raise ValueError(f"'re' and 'im' entries must be numbers, got {re!r} and {im!r}")
    return np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)


def dirichlet_to_dict(D: DirichletPoly) -> dict:
    coeffs = [{"n": n, **_vector_fields(D[n])} for n in D.indices()]
    return {"space": _space_to_dict(D.space), "coeffs": coeffs}


def dirichlet_from_dict(obj: Any) -> DirichletPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("Dirichlet polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    out: dict[int, np.ndarray] = {}
    for entry in obj["coeffs"]:
        if not isinstance(entry, dict) or "n" not in entry:
            raise ValueError("each coefficient needs an integer field 'n'")
        n = entry["n"]
        if type(n) is not int:
            raise ValueError(f"index must be an integer, got {n!r}")
        if n in out:
            raise ValueError(f"duplicate index {n}")
        out[n] = _vector_from_fields(entry, space.dim)
    return DirichletPoly(out, space)


def power_to_dict(P: PowerPoly) -> dict:
    coeffs = [
        {"alpha": list(alpha.exponents), **_vector_fields(P[alpha])} for alpha in P.indices()
    ]
    return {"space": _space_to_dict(P.space), "coeffs": coeffs}


def power_from_dict(obj: Any) -> PowerPoly:
    if not isinstance(obj, dict) or "space" not in obj or "coeffs" not in obj:
        raise ValueError("power polynomial must be an object with 'space' and 'coeffs'")
    space = _space_from_dict(obj["space"])
    out: dict[MultiIndex, np.ndarray] = {}
    for entry in obj["coeffs"]:
        if not isinstance(entry, dict) or "alpha" not in entry:
            raise ValueError("each coefficient needs an exponent list 'alpha'")
        alpha_raw = entry["alpha"]
        if not isinstance(alpha_raw, list) or not set(map(type, alpha_raw)) <= {int}:
            raise ValueError(f"'alpha' must be a list of integers, got {alpha_raw!r}")
        alpha = MultiIndex(alpha_raw)
        if alpha in out:
            raise ValueError(f"duplicate index {alpha.exponents}")
        out[alpha] = _vector_from_fields(entry, space.dim)
    return PowerPoly(out, space)


def dumps(poly) -> str:
    if isinstance(poly, DirichletPoly):
        return json.dumps(dirichlet_to_dict(poly), indent=2)
    if isinstance(poly, PowerPoly):
        return json.dumps(power_to_dict(poly), indent=2)
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
