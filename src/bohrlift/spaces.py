"""Finite-dimensional coefficient spaces (C^d with an l1/l2/linf norm)."""

from __future__ import annotations

import math
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
    """Norm of each row of an (S, dim) complex array under the space's norm.

    No reduction runs along the short coefficient axis, where numpy pays
    a per-row overhead:

    - a row of one entry has the norm |v| under all three norms:
      `np.abs(values[:, 0])`, equal bit for bit to sqrt(fl(|v|^2))
      wherever the square neither underflows nor overflows (|v| in
      [1.5e-154, 1.3e154]), and finite past 1.3e154;
    - l2 is `sqrt(einsum("ij,ij->i", r, r))` over the float64 view `r` of
      the C-contiguous rows, re^2 + im^2 summed in one pass;
    - l1 is `einsum("ij->i", |values|)`;
    - linf is the max of |values| along each row.

    Each row's norm depends on that row's entries only: not on its byte
    offset in memory, its neighbours, or the input's strides (an input
    that is not C-contiguous complex128 is copied to one first, so both
    einsum passes always run the contiguous loop).
    """
    if values.shape[-1] == 1:
        return np.abs(values[:, 0])
    if values.dtype != np.complex128 or not values.flags.c_contiguous:
        values = np.ascontiguousarray(values, dtype=np.complex128)
    if space.norm == NORM_L2:
        return np.sqrt(_squares(values))
    a = np.abs(values)
    return np.einsum("ij->i", a) if space.norm == NORM_L1 else a.max(axis=-1)


def max_row_norm(values: np.ndarray, space: CoeffSpace) -> float:
    """`row_norms(values, space).max()` as a float, with one square root under l2.

    A correctly rounded square root is monotone, so the root of the
    largest squared l2 norm is the largest root, bit for bit (a NaN or
    an overflowed square included).  Rows of one entry keep |v|.
    """
    if space.norm != NORM_L2 or values.shape[-1] == 1:
        return float(row_norms(values, space).max())
    return math.sqrt(float(_squares(np.ascontiguousarray(values, dtype=np.complex128)).max()))


def _squares(values: np.ndarray) -> np.ndarray:
    """Squared l2 norm of each row of a C-contiguous complex128 array: re^2 + im^2 in one einsum pass over its float64 view."""
    r = values.view(np.float64)
    return np.einsum("ij,ij->i", r, r)


def vector_norm(value: np.ndarray, space: CoeffSpace) -> float:
    """Norm of a single coefficient vector."""
    return float(row_norms(np.asarray(value, dtype=np.complex128).reshape(1, -1), space)[0])
