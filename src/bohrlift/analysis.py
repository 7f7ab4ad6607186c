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
- A membership probe for coefficient families: materialize f_{m_max},
  estimate the norms of its restrictions f_m to the first m coordinates
  on one sample set, and watch whether the non-decreasing sequence
  ||f_m|| stalls (membership so far) or keeps climbing (divergence
  trend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .gallery import gallery
from .multiindex import EMPTY_INDEX, MultiIndex
from .norms import NormEstimate, norm_h2_exact, norm_hinf_grid, norm_hp_rows
from .primes import factorize, index_of
from .sampling import SamplerConfig
from .series import PowerPoly, power_eval, restrict
from .spaces import CoeffSpace, SCALAR, vector_norm

BOUNDED_SO_FAR = "BOUNDED_SO_FAR"
DIVERGENT_TREND = "DIVERGENT_TREND"

#: Total-degree cutoff when a coefficient family is materialized without
#: an explicit support hint.
DEFAULT_DEGREE_CAP = 12

#: Relative increment of ||f_m|| below which `hilbert_criterion` sees a stall.
STALL_TOL = 1e-3


def cayley(z: complex) -> complex:
    """Disc-to-half-plane map phi(z) = (1 + z)/(1 - z); needs |z| < 1.

    Sends 0 to 1 and the disc onto the open right half-plane.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z)} is not inside the unit disc")
    return (1.0 + z) / (1.0 - z)


def cayley_inv(s: complex) -> complex:
    """Inverse map s -> (s - 1)/(s + 1); needs Re s >= 0.

    The open half-plane returns to the open disc; the boundary line
    Re s = 0 lands on the unit circle (used by the Stolz ratio).
    """
    s = complex(s)
    if s.real < 0.0:
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


def schwarz_bound_check(P: PowerPoly, z) -> tuple[float, float]:
    """Value and bound for the Schwarz inequality ||P(z)|| <= max_j |z_j|.

    Preconditions: the constant term vanishes and the caller has
    normalized P to sup norm below one (see `normalize_for_schwarz`).
    Returns (||P(z)||, max_j |z_j|) with the max over the coordinates P
    actually uses.
    """
    if EMPTY_INDEX in P:
        raise ValueError("P must vanish at 0 (no constant term)")
    z = np.asarray(list(z), dtype=np.complex128)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("z must lie strictly inside the polydisc")
    m = P.width
    if z.shape[0] < m:
        raise ValueError(f"need at least {m} coordinates, got {z.shape[0]}")
    value = vector_norm(power_eval(P, z), P.space)
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
    z = np.asarray(list(z), dtype=np.complex128)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("z must lie strictly inside the polydisc")
    if z.shape[0] < P.width:
        raise ValueError(f"need at least {P.width} coordinates, got {z.shape[0]}")
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


# -- coefficient families and the restriction criterion ------------------------


@dataclass(frozen=True)
class CoeffFamily:
    """A deterministic rule alpha -> coefficient, with a label.

    ``generator`` must be pure: the value at alpha never depends on m,
    so the materialized restrictions are genuinely nested.  ``support``
    optionally lists candidate indices for a given width, sparing the
    materializer a blind scan over all indices below the degree cap; its
    candidates of width <= m must not depend on the width asked for.
    """

    label: str
    space: CoeffSpace
    generator: Callable[[MultiIndex], object]
    support: Callable[[int], Iterable[MultiIndex]] | None = None


def _canonical_indices(m: int, degree_cap: int):
    """All multi-indices of width <= m and total degree <= degree_cap."""
    yield EMPTY_INDEX

    def build(left: int, prefix: list[int]):
        for e in range(0, left + 1):
            cur = prefix + [e]
            if e > 0:
                yield MultiIndex(cur)
            if len(cur) < m:
                yield from build(left - e, cur)

    yield from build(degree_cap, [])


def materialize_family(
    family: CoeffFamily, m: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> PowerPoly:
    """The restriction f_m: coefficients supported on the first m coordinates.

    Indices beyond the degree cap are not materialized; families used
    with the criterion should be exactly representable under the cap.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    candidates = family.support(m) if family.support is not None else _canonical_indices(m, degree_cap)
    out = {}
    for alpha in candidates:
        if alpha.width <= m and alpha.degree <= degree_cap and alpha not in out:
            out[alpha] = family.generator(alpha)
    return PowerPoly(out, family.space)


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
    family: CoeffFamily,
    p: float,
    m_max: int,
    cfg: SamplerConfig | None = None,
    *,
    grid_per_dim: int = 16,
) -> CriterionReport:
    """Membership probe: does sup_m ||f_m||_{H_p} look finite?

    Estimates ||f_m|| for m = 1..m_max as restrictions of f_{m_max},
    materialized once: lattice sups for p = infinity, else one
    `norm_hp_rows` call with the weight rows 1[width(alpha) <= m] (exact
    Parseval for p = 2 with Euclidean coefficients, else Monte Carlo on
    one sample set, every row with cfg.seed).  The verdict is
    BOUNDED_SO_FAR when the last three relative increments all fall
    below STALL_TOL, DIVERGENT_TREND otherwise; either way it is a
    statement about the window [1, m_max], not a proof.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    P = materialize_family(family, m_max)
    ms = range(1, m_max + 1)
    if math.isinf(p):
        estimates = [norm_hinf_grid(restrict(P, m), grid_per_dim) for m in ms]
    else:
        widths = np.array([alpha.width for alpha in P.indices()])
        estimates = norm_hp_rows(P, p, np.stack([(widths <= m).astype(np.float64) for m in ms]), cfg)
    values = [est.value for est in estimates]
    increments = np.diff(values[-4:]) / max(abs(values[-1]), 1e-30)  # relative to the last value
    verdict = BOUNDED_SO_FAR if len(increments) and (increments <= STALL_TOL).all() else DIVERGENT_TREND
    return CriterionReport(tuple(zip(ms, estimates)), verdict, max(values))


def unit_direction_family(cap: int | None = None) -> CoeffFamily:
    """Coefficient 1 at every alpha = e_k (k < cap when capped), else 0.

    The restriction f_m is the sum of the first min(m, cap) coordinate
    functions, with exact H_2 norm sqrt(min(m, cap)): bounded when
    capped, growing like sqrt(m) when not.
    """

    def gen(alpha: MultiIndex):
        pairs = alpha.pairs
        if len(pairs) == 1 and pairs[0][1] == 1 and (cap is None or pairs[0][0] < cap):
            return 1.0
        return 0.0

    def support(m: int):
        top = m if cap is None else min(m, cap)
        return [MultiIndex.unit(k) for k in range(top)]

    label = "unit-directions" if cap is None else f"unit-directions-first-{cap}"
    return CoeffFamily(label, SCALAR, gen, support)


def c0_style_family(size: int) -> CoeffFamily:
    """Standard basis vectors as coefficients: e_n at alpha(n), n <= size.

    The coefficients of gallery("c0", size), in (C^size, linf).  Every
    coefficient has norm one (no decay at all), yet each restriction has
    sup norm exactly one: at any torus point the entries are unimodular
    monomial values, so the max is 1.  The family is the finite-
    dimensional shadow of a c_0-valued series whose membership no
    coefficient-decay test would predict.
    """
    D = gallery("c0", size)
    zero = np.zeros(size)

    def gen(alpha: MultiIndex):
        try:
            n = index_of(alpha)
        except OverflowError:
            return zero
        return D.get(n, zero)

    def support(m: int):
        return [factorize(n) for n in D.indices()]

    return CoeffFamily(f"c0-style-{size}", D.space, gen, support)
