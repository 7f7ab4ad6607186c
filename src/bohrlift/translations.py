"""Translations and coefficient twists of Dirichlet polynomials.

Translating by z multiplies each coefficient by n^{-z}; imaginary
translations rotate coefficients without changing any Hardy norm, and
real translations epsilon > 0 damp high indices, with the norm profile
epsilon -> ||D_epsilon|| non-increasing and converging to ||D|| as
epsilon -> 0.  The norms of translates are weight rows n^{-epsilon} of
the one finite-p estimator `norms.norm_hp_rows`.  Twisting multiplies the coefficient at n by theta^alpha(n)
for a point theta on the torus; it is a norm isometry with inverse the
conjugate twist.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimatorInconsistencyError
from .norms import NormEstimate, norm_h2_exact, norm_hp_rows
from .primes import factorize_all
from .sampling import SamplerConfig
from .series import DirichletPoly, coeff_matrix, monomial_at
from .spaces import row_norms

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
            if not abs(r - 1.0) <= 1e-9:
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
        return DirichletPoly._moved(dict(D.items()), D.space)
    return DirichletPoly(
        {n: v * cmath.exp(-z * math.log(n)) for n, v in D.items()}, D.space
    )


def twist(D: DirichletPoly, theta: TwistPoint) -> DirichletPoly:
    """Coefficient twist: the coefficient at n picks up theta^alpha(n).

    The twist point must cover every prime appearing in the support;
    twisting by the conjugate point undoes it.  Since each factor is
    unimodular, all Hardy norms are unchanged.
    """
    terms = list(D.items())
    lifted = factorize_all([n for n, _ in terms])
    width = max((alpha.width for alpha in lifted), default=0)
    if len(theta) < width:
        raise ValueError(
            f"twist point has {len(theta)} angles but the support uses {width} primes"
        )
    return DirichletPoly({n: v * monomial_at(alpha, theta.angles) for (n, v), alpha in zip(terms, lifted)}, D.space)


def eps_norm_profile(
    D: DirichletPoly,
    p: float,
    eps_grid=None,
    cfg: SamplerConfig | None = None,
) -> list[tuple[float, NormEstimate]]:
    """Norms of the real translates D_eps along a grid of eps > 0.

    Each translate weighs the coefficient at n by n^{-eps}, and the rows
    come from one call of `norm_hp_rows`.  For p = 2 with Euclidean
    coefficients each row is the closed form
    sqrt(sum_n ||a_n n^{-eps}||^2), exact and strictly decreasing in eps
    for non-constant D.  Otherwise rows are Monte Carlo estimates
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
    ns = np.array(D.indices(), dtype=np.float64)
    return list(zip(eps_list, norm_hp_rows(D, p, np.stack([ns ** (-e) for e in eps_list]), cfg)))


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
    the estimate is the plain one; a cross-check at eps = 2^-20, a
    second weight row on the same sample set, must sit within the
    translation-continuity bound sum_n ||a_n|| (1 - n^{-eps}), else the
    two estimators disagree and an EstimatorInconsistencyError is raised.
    """
    eps = EPS_CROSS_CHECK
    ns = np.array(D.indices(), dtype=np.float64)
    damp = ns ** (-eps)
    base, probe = norm_hp_rows(D, p, np.stack([np.ones_like(ns), damp]), cfg)
    lipschitz = math.fsum(row_norms(coeff_matrix(D), D.space) * (1.0 - damp))
    tol = lipschitz + 1e-9
    if abs(probe.value - base.value) > tol:
        raise EstimatorInconsistencyError(
            f"translation probe {probe.value} vs plain estimate {base.value} "
            f"differs beyond the continuity bound {tol}"
        )
    return base
