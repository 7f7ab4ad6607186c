"""Named example polynomials used by experiments and the CLI.

Four families, each keyed by a size parameter and reproducible
bit-for-bit from a seed where randomness is involved:

- ``c0``: index n carries the n-th standard basis vector of
  (C^size, linf); coefficients never decay yet the sup norm stays 1.
- ``zeta_shift``: scalar a_n = n^{-sigma} for n <= size, the archetypal
  slowly-decaying positive family (default sigma = 0.51).
- ``random_pm1``: scalar independent signs +-1.
- ``random_unimodular``: scalar independent points of the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import DirichletPoly
from .spaces import CoeffSpace, NORM_LINF, SCALAR

DEFAULT_SIGMA = 0.51


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    summary: str
    builder: Callable[..., DirichletPoly]


def _c0(size: int, seed: int = 0, sigma: float = DEFAULT_SIGMA) -> DirichletPoly:
    """e_n at index n in (C^size, linf); `c0_style_family` reads its coefficients here."""
    space = CoeffSpace(size, NORM_LINF)
    coeffs = {}
    for n in range(1, size + 1):
        v = np.zeros(size)
        v[n - 1] = 1.0
        coeffs[n] = v
    return DirichletPoly(coeffs, space)


def _zeta_shift(size: int, seed: int = 0, sigma: float = DEFAULT_SIGMA) -> DirichletPoly:
    return DirichletPoly(
        {n: float(n) ** (-sigma) for n in range(1, size + 1)}, SCALAR
    )


def _random_pm1(size: int, seed: int = 0, sigma: float = DEFAULT_SIGMA) -> DirichletPoly:
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return DirichletPoly({n: float(signs[n - 1]) for n in range(1, size + 1)}, SCALAR)


def _random_unimodular(size: int, seed: int = 0, sigma: float = DEFAULT_SIGMA) -> DirichletPoly:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return DirichletPoly(
        {n: complex(math.cos(phases[n - 1]), math.sin(phases[n - 1])) for n in range(1, size + 1)},
        SCALAR,
    )


GALLERY: dict[str, GalleryEntry] = {
    "c0": GalleryEntry("c0", "basis-vector coefficients in (C^size, linf)", _c0),
    "zeta_shift": GalleryEntry("zeta_shift", "scalar a_n = n^{-sigma}", _zeta_shift),
    "random_pm1": GalleryEntry("random_pm1", "scalar random signs", _random_pm1),
    "random_unimodular": GalleryEntry(
        "random_unimodular", "scalar random unit-circle coefficients", _random_unimodular
    ),
}


def gallery(name: str, size: int, seed: int = 0, sigma: float = DEFAULT_SIGMA) -> DirichletPoly:
    """Build a named example with indices 1..size.

    Randomized families are pure functions of (size, seed); the sigma
    parameter only affects ``zeta_shift``.
    """
    if name not in GALLERY:
        raise ValueError(f"unknown gallery name {name!r}; choose from {sorted(GALLERY)}")
    if size < 1:
        raise ValueError("size must be at least 1")
    return GALLERY[name].builder(size, seed=seed, sigma=sigma)
