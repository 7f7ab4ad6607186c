"""Disc/half-plane geometry checks and the column-restriction criterion.

Three groups of tools:

- The Cayley map phi(z) = (1 + z)/(1 - z) between the unit disc and the
  right half-plane, and the closed form for the Stolz-type ratio that
  controls how a horizontal step eps + it on the half-plane looks from
  the disc's boundary.
- Pointwise bounds for polynomials on the polydisc: the Schwarz bound
  ||f(z)|| <= max_j |z_j| for f(0) = 0 and sup norm below one, and the
  H_2 evaluation bound ||f(z)|| <= ||f||_2 prod_j (1 - |z_j|^2)^{-1/2},
  sharp on truncations of the product reproducing kernel.
- A membership probe for coefficient families.  A family is a function
  m -> f_m giving the restriction of a formal power series to its first
  m coordinates, as `log_bound_experiment` takes a function N -> D.  The
  probe builds f_{m_max} once, estimates the norms of its restrictions
  f_m on one sample set, and watches whether the non-decreasing
  sequence ||f_m|| stalls (membership so far) or keeps climbing
  (divergence trend).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gallery import gallery
from .multiindex import EMPTY_INDEX, MultiIndex
from .norms import NormEstimate, check_count, norm_h2_exact, norm_hinf_grid, norm_hp_rows
from .sampling import SamplerConfig
from .series import PowerPoly, bohr_lift, power_eval, restrict
from .spaces import SCALAR, vector_norm

BOUNDED_SO_FAR = "BOUNDED_SO_FAR"
DIVERGENT_TREND = "DIVERGENT_TREND"

#: Relative increment of ||f_m|| below which `hilbert_criterion` sees a stall.
STALL_TOL = 1e-3


def cayley(z: complex) -> complex:
    """Disc-to-half-plane map phi(z) = (1 + z)/(1 - z); needs |z| < 1.

    Sends 0 to 1 and the disc onto the open right half-plane.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"|z| = {abs(z)} is not inside the unit disc")
    return (1.0 + z) / (1.0 - z)


def cayley_inv(s: complex) -> complex:
    """Inverse map s -> (s - 1)/(s + 1); needs finite s with Re s >= 0.

    The open half-plane returns to the open disc; the boundary line
    Re s = 0 lands on the unit circle (used by the Stolz ratio).
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    if not s.real >= 0.0:
        raise ValueError(f"Re s = {s.real} is negative")
    return (s - 1.0) / (s + 1.0)


def stolz_ratio(eps: float, t: float) -> tuple[float, float]:
    """Both sides of the horizontal-step identity at s = eps + it.

    Left: |phi^{-1}(eps + it) - phi^{-1}(it)| / (1 - |phi^{-1}(eps + it)|),
    measured in the disc.  Right: the closed form
    (sqrt((1+eps)^2 + t^2) + sqrt((1-eps)^2 + t^2)) / (2 sqrt(1 + t^2)).
    The two agree identically; at eps = 1, t = 0 both equal 1.  The
    ratio stays bounded for bounded eps, which is what lets horizontal
    translations be read as approach regions on the disc.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")
    inner = cayley_inv(complex(eps, t))
    boundary = cayley_inv(complex(0.0, t))
    lhs = abs(inner - boundary) / (1.0 - abs(inner))
    rhs = (
        math.sqrt((1.0 + eps) ** 2 + t * t) + math.sqrt((1.0 - eps) ** 2 + t * t)
    ) / (2.0 * math.sqrt(1.0 + t * t))
    return lhs, rhs


def _polydisc_point(z) -> np.ndarray:
    z = np.asarray(list(z), dtype=np.complex128)
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("z must lie strictly inside the polydisc")
    return z


def schwarz_bound_check(P: PowerPoly, z) -> tuple[float, float]:
    """Value and bound for the Schwarz inequality ||P(z)|| <= max_j |z_j|.

    Preconditions: the constant term vanishes and the caller has
    normalized P to sup norm below one (see `normalize_for_schwarz`).
    Returns (||P(z)||, max_j |z_j|) with the max over the coordinates P
    actually uses.
    """
    if EMPTY_INDEX in P:
        raise ValueError("P must vanish at 0 (no constant term)")
    z = _polydisc_point(z)
    value = vector_norm(power_eval(P, z), P.space)
    m = P.width
    bound = float(np.abs(z[:m]).max()) if m else 0.0
    return value, bound


def normalize_for_schwarz(
    P: PowerPoly, grid_per_dim: int = 64, inflate: float = 0.01
) -> PowerPoly:
    """Scale P by its lattice sup estimate inflated by `inflate`.

    The lattice scan is a lower bound for the true sup, so the small
    inflation buys the strict sup norm < 1 the Schwarz bound needs; on
    a marginal failure re-run with a finer grid before concluding.
    """
    sup = norm_hinf_grid(P, grid_per_dim).value
    if sup == 0.0:
        return P
    return P * (1.0 / (sup * (1.0 + inflate)))


def pointwise_eval_bound_h2(P: PowerPoly, z) -> tuple[float, float]:
    """Value and bound for ||P(z)||_2 <= ||P||_{H_2} prod_j (1 - |z_j|^2)^{-1/2}.

    Needs Euclidean coefficients and z strictly inside the polydisc;
    the product runs over every provided coordinate (extra factors only
    loosen the bound).  Equality is approached by truncations of the
    product kernel prod_j (1 - conj(z_j) w_j)^{-1}.
    """
    if not P.space.euclidean:
        raise ValueError("the evaluation bound is Euclidean-only; use l2 coefficients")
    z = _polydisc_point(z)
    value = vector_norm(power_eval(P, z), P.space)
    factors = 1.0 / np.sqrt(1.0 - np.abs(z) ** 2)
    bound = norm_h2_exact(P).value * float(np.prod(factors))
    return value, bound


def khintchine_linear(xi, m: int) -> tuple[PowerPoly, float]:
    """The linear section Q_m = sum_{k <= m} xi_k z_k and its exact H_2 norm.

    The norm is sqrt(sum_{k <= m} |xi_k|^2) by orthonormality, for any
    scalar sequence xi; partial-sum gaps obey the same closed form, so
    square-summability of xi decides convergence of the sections.
    """
    xs = [complex(x) for x in xi]
    if m < 0 or m > len(xs):
        raise ValueError(f"m must lie in [0, {len(xs)}], got {m}")
    poly = PowerPoly({MultiIndex.unit(k): xs[k] for k in range(m)}, SCALAR)
    norm = math.sqrt(math.fsum(abs(x) ** 2 for x in xs[:m]))
    return poly, norm


# -- the restriction criterion -------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    """Norms of the restrictions f_m, the trend verdict, and their sup.

    ``per_m`` is non-decreasing in exact arithmetic because each f_m is
    an average of f_{m+1} over the extra torus variable.
    """

    per_m: tuple[tuple[int, NormEstimate], ...]
    verdict: str
    sup_value: float

    def to_dict(self) -> dict:
        return {
            "per_m": [{"m": m, **est.to_dict()} for m, est in self.per_m],
            "verdict": self.verdict,
            "sup_value": self.sup_value,
        }


def hilbert_criterion(
    family: Callable[[int], PowerPoly],
    p: float,
    m_max: int,
    cfg: SamplerConfig | None = None,
    *,
    grid_per_dim: int = 16,
) -> CriterionReport:
    """Membership probe: does sup_m ||f_m||_{H_p} look finite?

    ``family`` maps m to the restriction f_m and is called once, for
    f_{m_max}; ||f_m|| for m = 1..m_max are read off the restrictions of
    that one polynomial: lattice sups for p = infinity, one scan per
    distinct restriction, else one
    `norm_hp_rows` call with the weight rows 1[width(alpha) <= m] (exact
    Parseval for p = 2 with Euclidean coefficients, else Monte Carlo on
    one sample set, every row with cfg.seed).  The verdict is
    BOUNDED_SO_FAR when the last three relative increments all fall
    below STALL_TOL, DIVERGENT_TREND otherwise; either way it is a
    statement about the window [1, m_max], not a proof.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    P = family(m_max)
    if not isinstance(P, PowerPoly):
        raise TypeError(f"family({m_max}) must return a PowerPoly, got {type(P).__name__}")
    ms = range(1, m_max + 1)
    if math.isinf(p):
        restrictions = [restrict(P, m) for m in ms]  # nested: two with as many terms are one polynomial, scanned once
        scans = {len(f): norm_hinf_grid(f, grid_per_dim) for f in {len(f): f for f in restrictions}.values()}
        estimates = [scans[len(f)] for f in restrictions]
    else:
        widths = np.array([alpha.width for alpha in P.indices()])
        estimates = norm_hp_rows(P, p, np.stack([(widths <= m).astype(np.float64) for m in ms]), cfg)
    values = [est.value for est in estimates]
    increments = np.diff(values[-4:]) / max(abs(values[-1]), 1e-30)  # relative to the last value
    verdict = BOUNDED_SO_FAR if len(increments) and (increments <= STALL_TOL).all() else DIVERGENT_TREND
    return CriterionReport(tuple(zip(ms, estimates)), verdict, max(values))


def unit_direction_family(cap: int | None = None) -> Callable[[int], PowerPoly]:
    """m -> f_m with coefficient 1 at alpha = e_k for k < min(m, cap).

    f_m is the sum of the first min(m, cap) coordinate functions, with
    exact H_2 norm sqrt(min(m, cap)): bounded when capped, growing like
    sqrt(m) when not.  A negative cap has no meaning and is refused.
    """
    if cap is not None:
        check_count(cap, "cap", 0)
    return lambda m: PowerPoly(
        {MultiIndex.unit(k): 1.0 for k in range(m if cap is None else min(m, cap))}, SCALAR
    )


def c0_style_family(size: int) -> Callable[[int], PowerPoly]:
    """m -> restrict(bohr_lift(gallery("c0", size)), m), lifted once.

    Standard basis vectors as coefficients: e_n at alpha(n), n <= size,
    in (C^size, linf).  Every coefficient has norm one (no decay at
    all), yet each restriction has sup norm exactly one: at any torus
    point the entries are unimodular monomial values, so the max is 1.
    The family is the finite-dimensional shadow of a c_0-valued series
    whose membership no coefficient-decay test would predict.
    """
    P = bohr_lift(gallery("c0", size))
    return lambda m: restrict(P, m)
