"""Translations and coefficient twists of Dirichlet polynomials.

Translating by z multiplies each coefficient by n^{-z}; imaginary
translations rotate coefficients without changing any Hardy norm, and
real translations epsilon > 0 damp high indices, with the norm profile
epsilon -> ||D_epsilon|| non-increasing and converging to ||D|| as
epsilon -> 0.  Twisting multiplies the coefficient at n by theta^alpha(n)
for a point theta on the torus; it is a norm isometry with inverse the
conjugate twist.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimatorInconsistencyError
from .norms import (
    EXACT_PARSEVAL,
    NormEstimate,
    check_p,
    mc_estimate,
    norm_h2_exact,
    norm_hp_mc,
    sample_target,
)
from .primes import factorize, index_of
from .sampling import SamplerConfig
from .series import DirichletPoly, bohr_lift, coeff_matrix, monomial_map
from .spaces import row_norms, vector_norm

#: Default geometric grid 1, 1/2, ..., 2^-20 for the epsilon profile.
DEFAULT_EPS_GRID = tuple(2.0**-k for k in range(21))

#: Epsilon used by the hplus_norm cross-check.
EPS_CROSS_CHECK = 2.0**-20


@dataclass(frozen=True)
class TwistPoint:
    """A point of the polytorus: one unimodular angle per coordinate.

    Inputs are validated to be unimodular within 1e-9 and renormalized
    to unit modulus so long products of twists do not drift.
    """

    angles: tuple[complex, ...]

    def __init__(self, angles):
        normalized = []
        for k, w in enumerate(angles):
            w = complex(w)
            r = abs(w)
            if abs(r - 1.0) > 1e-9:
                raise ValueError(f"angle {k} has modulus {r}, expected 1")
            normalized.append(w / r)
        object.__setattr__(self, "angles", tuple(normalized))

    def __len__(self) -> int:
        return len(self.angles)

    def __getitem__(self, k: int) -> complex:
        return self.angles[k]

    def conjugate(self) -> "TwistPoint":
        return TwistPoint(tuple(w.conjugate() for w in self.angles))

    @classmethod
    def from_phases(cls, phases) -> "TwistPoint":
        return cls(tuple(cmath.exp(1j * float(t)) for t in phases))

    @classmethod
    def random(cls, count: int, seed: int = 0) -> "TwistPoint":
        rng = np.random.default_rng(seed)
        return cls.from_phases(rng.uniform(0.0, 2.0 * math.pi, size=count))


def translate(D: DirichletPoly, z: complex) -> DirichletPoly:
    """The translate D_z = sum_n a_n n^{-z} n^{-s}.

    Composition adds offsets: translating by z then w equals translating
    by z + w, and translate(D, 0) returns an equal polynomial.
    """
    z = complex(z)
    if z == 0:
        return DirichletPoly(dict(D.items()), D.space)
    return DirichletPoly(
        {n: v * cmath.exp(-z * math.log(n)) for n, v in D.items()}, D.space
    )


def twist(D: DirichletPoly, theta: TwistPoint) -> DirichletPoly:
    """Coefficient twist: the coefficient at n picks up theta^alpha(n).

    The twist point must cover every prime appearing in the support;
    twisting by the conjugate point undoes it.  Since each factor is
    unimodular, all Hardy norms are unchanged.
    """
    P = bohr_lift(D)
    if len(theta) < P.width:
        raise ValueError(
            f"twist point has {len(theta)} angles but the support uses {P.width} primes"
        )
    out = {}
    for n, v in D.items():
        w = 1.0 + 0.0j
        for pos, e in factorize(n).pairs:
            w *= theta.angles[pos] ** e
        out[n] = v * w
    return DirichletPoly(out, D.space)


def eps_norm_profile(
    D: DirichletPoly,
    p: float,
    eps_grid=None,
    cfg: SamplerConfig | None = None,
) -> list[tuple[float, NormEstimate]]:
    """Norms of the real translates D_eps along a grid of eps > 0.

    For p = 2 with Euclidean coefficients each row is the closed form
    sqrt(sum_n ||a_n||^2 n^{-2 eps}), exact and strictly decreasing in
    eps for non-constant D.  Otherwise rows are Monte Carlo estimates
    sharing one fixed sample set (common random numbers), so the
    profile's trend is not drowned by independent noise.
    """
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    eps_list = [float(e) for e in eps_grid]
    if not eps_list:
        raise ValueError("eps grid must be non-empty")
    for e in eps_list:
        if not (e > 0 and math.isfinite(e)):
            raise ValueError(f"eps grid entries must be positive, got {e!r}")
    check_p(p)

    if p == 2.0 and D.space.euclidean:
        rows = []
        sq = {n: math.fsum((v.real**2 + v.imag**2).tolist()) for n, v in D.items()}
        for e in eps_list:
            total = math.fsum(sq[n] * float(n) ** (-2.0 * e) for n in sq)
            rows.append((e, NormEstimate(math.sqrt(total), EXACT_PARSEVAL)))
        return rows

    if cfg is None:
        cfg = SamplerConfig()
    target, points = sample_target(D, cfg)
    E = monomial_map(target)(points)
    C = coeff_matrix(target)
    keys = target.indices()
    ns = np.array(keys if target is D else [index_of(a) for a in keys], dtype=np.float64)
    rows = []
    for e in eps_list:
        weights = ns ** (-e)
        values = E @ (C * weights[:, None])
        rows.append((e, mc_estimate(row_norms(values, D.space), p, cfg)))
    return rows


def eps_gap_bound_h2(D: DirichletPoly, eps: float) -> float:
    """Analytic bound |  ||D_eps||_2 - ||D||_2  | <= ||D||_2 sqrt(1 - N^{-2 eps}).

    Follows from the closed form: the damped Parseval sum loses at most
    the factor 1 - N^{-2 eps} of each term, N the largest index.
    """
    N = D.max_index
    if N <= 1:
        return 0.0
    norm = norm_h2_exact(D).value
    return norm * math.sqrt(1.0 - float(N) ** (-2.0 * eps))


def hplus_norm(D: DirichletPoly, p: float, cfg: SamplerConfig | None = None) -> NormEstimate:
    """Hardy norm through vanishing real translation.

    On polynomials sup_{eps > 0} ||D_eps|| equals the plain H_p norm
    (the profile increases as eps decreases and converges to ||D||), so
    the estimate is the plain one; a cross-check at eps = 2^-20 on the
    same sample set must sit within the translation-continuity bound
    sum_n ||a_n|| (1 - n^{-eps}), else the two estimators disagree and
    an EstimatorInconsistencyError is raised.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if p == 2.0 and D.space.euclidean:
        base = norm_h2_exact(D)
    else:
        base = norm_hp_mc(D, p, cfg)
    eps = EPS_CROSS_CHECK
    probe = eps_norm_profile(D, p, [eps], cfg)[0][1]
    lipschitz = math.fsum(
        vector_norm(v, D.space) * (1.0 - float(n) ** (-eps)) for n, v in D.items()
    )
    tol = lipschitz + 1e-9
    if abs(probe.value - base.value) > tol:
        raise EstimatorInconsistencyError(
            f"translation probe {probe.value} vs plain estimate {base.value} "
            f"differs beyond the continuity bound {tol}"
        )
    return base
