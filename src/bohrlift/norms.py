"""Hardy-norm estimators on the polytorus and on vertical lines.

The H_p norm of a Dirichlet polynomial has two equal faces: the L_p
norm of its Bohr lift over the polytorus under Haar measure, and the
limit of vertical-line averages ((1/2R) int_{-R}^{R} ||D(it)||^p dt)^{1/p}
as R grows, because the line t -> (2^{-it}, 3^{-it}, ...) equidistributes
on the torus.  This module estimates the torus face exactly (p = 2 with
Euclidean coefficients), by seeded Monte Carlo (any finite p >= 1), or
by a lattice scan (p = infinity, a certified lower bound), and the line
face by trapezoid quadrature; the test suite pits the faces against
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, NoClosedFormError
from .sampling import (
    KRONECKER_QMC,
    SamplerConfig,
    kronecker_times,
    pairwise_mean,
    pairwise_sum,
    torus_angles,
)
from .series import DirichletPoly, PowerPoly, bohr_lift, dirichlet_line_values, evaluate
from .spaces import row_norms, vector_norm

EXACT_PARSEVAL = "exact_parseval"
TORUS_MC = "torus_mc"
TORUS_GRID_SUP = "torus_grid_sup"
VERTICAL_MEAN = "vertical_mean"
VERTICAL_SUP = "vertical_sup"

#: Widest lift the exhaustive lattice scan will accept by default.
DEFAULT_GRID_DIM_CAP = 8


@dataclass(frozen=True)
class NormEstimate:
    """One norm value together with how it was produced.

    ``std_error`` is zero exactly when the method is deterministic
    (exact formula, lattice scan, or line quadrature).  ``R`` records
    the vertical-line half-length for the line estimators and is pure
    metadata, not part of the serialized form.
    """

    value: float
    method: str
    std_error: float = 0.0
    samples: int = 0
    seed: int = 0
    R: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def _as_power(poly) -> PowerPoly:
    return bohr_lift(poly) if isinstance(poly, DirichletPoly) else poly


def norm_h2_exact(poly) -> NormEstimate:
    """H_2 norm by orthonormality of the monomials: sqrt(sum_n ||a_n||_2^2).

    Valid only when the coefficient norm is the Euclidean one (l2, or
    any norm in dimension 1); other norms admit no closed form and are
    rejected in favor of the Monte Carlo estimator.  Sums run through
    math.fsum, so dropping terms can never enlarge the value.
    """
    if not poly.space.euclidean:
        raise NoClosedFormError(
            f"no closed form for H_2 with coefficient norm {poly.space.norm!r}; use norm_hp_mc"
        )
    squares = [math.fsum((v.real**2 + v.imag**2).tolist()) for _, v in poly.items()]
    value = math.sqrt(math.fsum(squares))
    return NormEstimate(value, EXACT_PARSEVAL)


def check_p(p: float) -> None:
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")


def sample_target(poly, cfg: SamplerConfig):
    """The polynomial a Monte Carlo estimate evaluates, and its sample points.

    Under the Kronecker scheme a Dirichlet polynomial is evaluated
    directly at the flow times (omega^alpha(n) = n^{-it}); otherwise
    the lift is evaluated at torus angles.
    """
    if isinstance(poly, DirichletPoly) and cfg.scheme == KRONECKER_QMC:
        return poly, kronecker_times(cfg)
    P = _as_power(poly)
    return P, torus_angles(cfg, P.width)


def mc_estimate(x: np.ndarray, p: float, cfg: SamplerConfig) -> NormEstimate:
    """(mean of x^p)^{1/p} over the cfg.samples sample norms x, with its standard error.

    The standard error follows the delta method,
    se(value) = se(mean of x^p) * value^{1-p} / p.
    """
    xp = x**p
    mean = pairwise_mean(xp)
    value = mean ** (1.0 / p)
    if cfg.samples > 1 and value > 0.0:
        var = pairwise_sum((xp - mean) ** 2) / (cfg.samples - 1)
        std_error = math.sqrt(var / cfg.samples) * value ** (1.0 - p) / p
    else:
        std_error = 0.0
    return NormEstimate(value, TORUS_MC, std_error, cfg.samples, cfg.seed)


def _constant_value(P: PowerPoly) -> float:
    return vector_norm(P.constant_term, P.space)


def norm_hp_mc(poly, p: float, cfg: SamplerConfig) -> NormEstimate:
    """Monte Carlo H_p estimate: (mean of ||lift(omega)||^p over samples)^{1/p}.

    The standard error follows the delta method (see `mc_estimate`).
    A constant polynomial short-circuits to its exact norm (every H_p
    norm of a constant is the coefficient norm), reported with zero
    standard error.  Fixed (samples, seed, scheme) reproduce bit-for-bit.
    """
    return norm_p_limit_check(poly, [p], cfg)[0][1]


def lattice_value_chunks(P: PowerPoly, grid: int):
    """Values of P on the width-fold lattice of grid-th roots of unity.

    Yields (points, dim) value blocks in C order of the lattice, so a
    scan holds one block at a time whatever the lattice size.
    """
    m = P.width
    total = grid**m
    step = 2.0 * math.pi / grid
    chunk = max(1, 2_000_000 // max(len(P), 1))
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        theta = np.empty((flat.size, m), dtype=np.float64)
        for j in range(m):
            theta[:, j] = (flat // grid ** (m - 1 - j)) % grid
        theta *= step
        yield evaluate(P, theta)


def norm_hinf_grid(poly, grid_per_dim: int, dim_cap: int = DEFAULT_GRID_DIM_CAP) -> NormEstimate:
    """Sup of ||lift|| over the lattice of grid_per_dim-th roots of unity.

    A certified lower bound for the true sup norm (the scan only visits
    lattice points).  Along refining grids (G, 2G, 4G, ...) the value is
    non-decreasing since each lattice contains the previous one.  The
    lift width is capped to keep the G^m lattice enumerable.
    """
    if grid_per_dim < 1:
        raise ValueError("grid_per_dim must be at least 1")
    P = _as_power(poly)
    m = P.width
    if m > dim_cap:
        raise DimensionCapError(
            f"lattice scan over {m} coordinates exceeds the cap {dim_cap}"
        )
    if m == 0:
        return NormEstimate(_constant_value(P), TORUS_GRID_SUP, 0.0, 1)
    best = 0.0
    for vals in lattice_value_chunks(P, grid_per_dim):
        best = max(best, float(row_norms(vals, P.space).max()))
    return NormEstimate(best, TORUS_GRID_SUP, 0.0, grid_per_dim**m)


def _line_norms(D: DirichletPoly, R: float, t_samples: int) -> tuple[np.ndarray, float]:
    if not isinstance(D, DirichletPoly):
        raise TypeError("vertical-line estimators need a Dirichlet polynomial")
    if not R > 0:
        raise ValueError("R must be positive")
    if t_samples < 2:
        raise ValueError("t_samples must be at least 2")
    t = np.linspace(-R, R, t_samples)
    return row_norms(dirichlet_line_values(D, t), D.space), t[1] - t[0]


def vertical_mean(D: DirichletPoly, p: float, R: float, t_samples: int) -> NormEstimate:
    """Trapezoid value of ((1/2R) int_{-R}^{R} ||D(it)||^p dt)^{1/p}.

    Converges to the H_p norm as R grows; use `vertical_mean_diagnostic`
    to watch the approach along R, 2R, 4R.
    """
    check_p(p)
    vals, dt = _line_norms(D, R, t_samples)
    vp = vals**p
    integral = (pairwise_sum(vp) - 0.5 * (vp[0] + vp[-1])) * dt
    value = (integral / (2.0 * R)) ** (1.0 / p)
    return NormEstimate(value, VERTICAL_MEAN, 0.0, t_samples, 0, R=R)


def vertical_sup(D: DirichletPoly, R: float, t_samples: int) -> NormEstimate:
    """Max of ||D(it)|| over a uniform grid in [-R, R]; lower bound for the sup.

    An odd t_samples places a node at t = 0.  As R grows the values
    climb toward the sup norm of the lift by equidistribution of the
    line inside the torus.
    """
    vals, _ = _line_norms(D, R, t_samples)
    return NormEstimate(float(vals.max()), VERTICAL_SUP, 0.0, t_samples, 0, R=R)


def vertical_mean_diagnostic(
    D: DirichletPoly, p: float, R: float, t_samples: int
) -> list[NormEstimate]:
    """Line means at R, 2R and 4R (node count scaled to keep resolution)."""
    return [
        vertical_mean(D, p, R * 2**k, (t_samples - 1) * 2**k + 1) for k in range(3)
    ]


def norm_p_limit_check(D, p_grid, cfg: SamplerConfig) -> list[tuple[float, NormEstimate]]:
    """Estimates along a grid of exponents, all from one shared sample set.

    On a shared sample the map p -> (mean ||.||^p)^{1/p} is a power mean
    and therefore non-decreasing in p exactly, so the returned table is
    monotone up to float rounding; as p grows the values approach the
    sup norm, but only slowly.  For example 1 + 2^{-s} has
    H_p = binom(p, p/2)^(1/p) for even p, still 5.96% below the sup 2 at
    p = 32, so a fixed-p row is not a reading of the sup.
    """
    ps = [float(p) for p in p_grid]
    for p in ps:
        check_p(p)
    P = _as_power(D)
    if P.width == 0:
        c = _constant_value(P)
        return [(p, NormEstimate(c, EXACT_PARSEVAL, 0.0, 0, cfg.seed)) for p in ps]
    target, points = sample_target(D, cfg)
    x = row_norms(evaluate(target, points), target.space)
    return [(p, mc_estimate(x, p, cfg)) for p in ps]
