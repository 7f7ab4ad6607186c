"""Finite-dimensional coefficient spaces (C^d with an l1/l2/linf norm)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_L1 = "l1"
NORM_L2 = "l2"
NORM_LINF = "linf"
VALID_NORMS = (NORM_L1, NORM_L2, NORM_LINF)


@dataclass(frozen=True)
class CoeffSpace:
    """Coefficient space C^dim carrying one of the norms l1, l2, linf."""

    dim: int
    norm: str = NORM_L2

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:  # exact type: bool is an int subclass
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm not in VALID_NORMS:
            raise ValueError(f"norm must be one of {VALID_NORMS}, got {self.norm!r}")

    @property
    def euclidean(self) -> bool:
        """True when the norm coincides with the Euclidean one (l2, or any norm in dim 1)."""
        return self.norm == NORM_L2 or self.dim == 1


SCALAR = CoeffSpace(1, NORM_L2)


def as_coeff_array(value, dim: int | None = None) -> np.ndarray:
    """Normalize a scalar or sequence to an immutable complex vector.

    With dim given the shape is validated; otherwise scalars become
    1-vectors and sequences keep their length.  The result is always a
    fresh copy, so it shares no memory with the caller's value.
    """
    arr = np.array(value, dtype=np.complex128, ndmin=1)
    if arr.ndim != 1:
        raise ValueError(f"coefficient must be a scalar or 1-d sequence, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"coefficient has {arr.shape[0]} entries, space has dim {dim}")
    arr.setflags(write=False)
    return arr


def row_norms(values: np.ndarray, space: CoeffSpace) -> np.ndarray:
    """Norm of each row of an (S, dim) array under the space's norm."""
    a = np.abs(values)
    if space.norm == NORM_L1:
        return a.sum(axis=-1)
    if space.norm == NORM_L2:
        return np.sqrt((a * a).sum(axis=-1))
    return a.max(axis=-1)


def vector_norm(value: np.ndarray, space: CoeffSpace) -> float:
    """Norm of a single coefficient vector."""
    return float(row_norms(np.asarray(value, dtype=np.complex128).reshape(1, -1), space)[0])
