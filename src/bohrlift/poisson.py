"""Poisson kernel on the polytorus and radial smoothing of power polynomials.

The one-variable kernel K(omega, z) = (|omega|^2 - |z|^2) / |omega - z|^2
is positive with Haar mean 1; the m-variable kernel at radius vector r
is the product prod_j K(omega_j, r_j z_j), equal to the absolutely
convergent series sum_alpha omega^{-alpha} z^alpha r^{|alpha|} over all
integer alpha.  Convolving a polynomial against it therefore just scales
the coefficient at alpha by r^{|alpha|} =  prod_j r_j^{alpha_j}; the
numeric path recomputes the same thing by tensor-grid quadrature and
discrete orthogonality, and agreement of the two is a standing check.
Smoothing never enlarges any L_p norm (the kernel is a probability
density), which `contraction_check` probes estimator-side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError
from .norms import NormEstimate, lattice_value_chunks, norm_h2_exact, norm_hp_mc
from .sampling import SamplerConfig
from .series import PowerPoly

#: Widest polynomial the grid-quadrature path will accept by default.
DEFAULT_POISSON_DIM_CAP = 4


@dataclass(frozen=True)
class RadiusVector:
    """Per-coordinate radii, each in [0, 1)."""

    radii: tuple[float, ...]

    def __init__(self, radii):
        values = []
        for k, r in enumerate(radii):
            r = float(r)
            if not (0.0 <= r < 1.0):
                raise ValueError(f"radius {k} is {r}, must lie in [0, 1)")
            values.append(r)
        object.__setattr__(self, "radii", tuple(values))

    def __len__(self) -> int:
        return len(self.radii)

    def __mul__(self, other: "RadiusVector") -> "RadiusVector":
        if len(self) != len(other):
            raise ValueError("radius vectors must have equal length")
        return RadiusVector(tuple(a * b for a, b in zip(self.radii, other.radii)))

    @classmethod
    def uniform(cls, r: float, m: int) -> "RadiusVector":
        return cls((r,) * m)


def _check_unimodular(w: np.ndarray, name: str) -> None:
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-9):
        raise ValueError(f"{name} must lie on the unit circle")


def kernel_1d(omega, z):
    """K(omega, z) = (|omega|^2 - |z|^2) / |omega - z|^2 for |omega| = 1, |z| < 1.

    Accepts scalars or arrays.  Positive on its domain; its Haar mean
    in omega is 1 for any fixed z, which makes it an averaging kernel.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    _check_unimodular(omega, "omega")
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("z must lie strictly inside the unit disc")
    num = np.abs(omega) ** 2 - np.abs(z) ** 2
    den = np.abs(omega - z) ** 2
    out = num / den
    return float(out) if out.ndim == 0 else out


def kernel_m(omega, z, r: RadiusVector):
    """Product kernel K(omega, r z) = prod_j K(omega_j, r_j z_j) on the torus.

    omega and z are torus points (unimodular entries) of shape (..., m)
    with m <= len(r).  Equals the multi-series
    sum_{alpha in Z^m} omega^{-alpha} z^alpha r^{|alpha|}.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if omega.shape != z.shape:
        raise ValueError("omega and z must have the same shape")
    m = omega.shape[-1] if omega.ndim else 0
    if m > len(r):
        raise ValueError(f"radius vector has {len(r)} entries, need {m}")
    _check_unimodular(omega, "omega")
    _check_unimodular(z, "z")
    rv = np.array(r.radii[:m], dtype=np.float64)
    num = 1.0 - rv**2
    den = np.abs(omega - rv * z) ** 2
    out = np.prod(num / den, axis=-1)
    return float(out) if out.ndim == 0 else out


def kernel_m_series(omega, z, r: RadiusVector, terms: int):
    """Truncation of the kernel's multi-series to the box |alpha_j| <= terms.

    The series factors per coordinate, so the truncated box sum is the
    product of one-dimensional partial sums; the tail is geometric of
    size O(r^{terms}), which lets tests pin the product formula against
    the series within explicit tolerances.
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    omega = np.asarray(omega, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    m = omega.shape[-1] if omega.ndim else 0
    total = np.ones(omega.shape[:-1], dtype=np.complex128)
    for j in range(m):
        u = z[..., j] / omega[..., j]
        rj = r.radii[j]
        acc = np.ones_like(u)
        powerpos = np.ones_like(u)
        powerneg = np.ones_like(u)
        for n in range(1, terms + 1):
            powerpos = powerpos * u
            powerneg = powerneg / u
            acc = acc + (rj**n) * (powerpos + powerneg)
        total = total * acc
    out = total.real if total.ndim else float(total.real)
    return out


def poisson_convolve_exact(P: PowerPoly, r: RadiusVector) -> PowerPoly:
    """Radial smoothing on coefficients: c_alpha -> c_alpha prod_j r_j^alpha_j.

    Composing two smoothings multiplies the radius vectors entrywise;
    the all-zero radius keeps only the constant term.
    """
    if len(r) < P.width:
        raise ValueError(f"radius vector has {len(r)} entries, polynomial width is {P.width}")
    out = {}
    for alpha, v in P.items():
        w = 1.0
        for pos, e in alpha.pairs:
            w *= r.radii[pos] ** e
        out[alpha] = v * w
    return PowerPoly(out, P.space)


def poisson_convolve_numeric(
    P: PowerPoly,
    r: RadiusVector,
    grid_per_dim: int,
    dim_cap: int = DEFAULT_POISSON_DIM_CAP,
) -> PowerPoly:
    """Radial smoothing computed by tensor-grid quadrature.

    Averages the polynomial's lattice values against the kernel (a
    cyclic convolution over the grid group, evaluated by FFT) and reads
    the smoothed coefficients back off by discrete orthogonality.  The
    node count per coordinate must exceed twice the largest per-
    coordinate degree plus one; then polynomial frequencies never alias
    and the only deviation from the exact path is the kernel's
    geometric tail r^{grid - degree}.
    """
    m = P.width
    if m > dim_cap:
        raise DimensionCapError(f"quadrature over {m} coordinates exceeds the cap {dim_cap}")
    if len(r) < m:
        raise ValueError(f"radius vector has {len(r)} entries, polynomial width is {m}")
    max_deg = max((e for alpha in P.coeffs for _, e in alpha.pairs), default=0)
    if grid_per_dim <= 2 * max_deg + 1:
        raise ValueError(
            f"grid_per_dim must exceed 2 * max degree + 1 = {2 * max_deg + 1}, got {grid_per_dim}"
        )
    if m == 0:
        return PowerPoly(dict(P.items()), P.space)

    G = grid_per_dim
    d = P.space.dim
    axes = tuple(range(m))
    values = np.concatenate(list(lattice_value_chunks(P, G))).reshape((G,) * m + (d,))
    spectrum = np.fft.fftn(values, axes=axes)

    # per-coordinate kernel on the lattice offsets, transformed once each
    ell = np.arange(G)
    for j in range(m):
        rj = r.radii[j]
        kj = (1.0 - rj**2) / np.abs(1.0 - rj * np.exp(2j * math.pi * ell / G)) ** 2
        shape = [1] * (m + 1)
        shape[j] = G
        spectrum = spectrum * np.fft.fft(kj).reshape(shape)

    smoothed = np.fft.ifftn(spectrum, axes=axes) / G**m  # quadrature values of the convolution
    coeff_spectrum = np.fft.fftn(smoothed, axes=axes) / G**m

    out = {}
    for alpha in P.coeffs:
        dense = alpha.exponents
        idx = dense + (0,) * (m - len(dense))
        out[alpha] = coeff_spectrum[idx]
    return PowerPoly(out, P.space)


def contraction_check(
    P: PowerPoly, r: RadiusVector, p: float, cfg: SamplerConfig | None = None
) -> tuple[NormEstimate, NormEstimate]:
    """Norms of (smoothed P, P); smoothing must not enlarge the norm.

    Exact Parseval values for p = 2 with Euclidean coefficients, Monte
    Carlo otherwise; callers compare lhs against rhs plus three combined
    standard errors.
    """
    Fr = poisson_convolve_exact(P, r)
    if p == 2.0 and P.space.euclidean:
        return norm_h2_exact(Fr), norm_h2_exact(P)
    if cfg is None:
        cfg = SamplerConfig()
    return norm_hp_mc(Fr, p, cfg), norm_hp_mc(P, p, cfg)
