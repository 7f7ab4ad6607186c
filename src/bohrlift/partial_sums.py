"""Partial-sum experiments: summation by parts and the log-growth of truncation.

Truncating a Dirichlet polynomial at N is a coefficient projection; its
operator norm on the Hardy scale grows no faster than a constant times
log N.  `log_bound_experiment` measures the ratio ||S_N D|| / ||D||
along a sweep of N and reports it against log N, so the stability of
ratio / log N is observable without ever asserting a value for the
constant.  `abel_identity_check` verifies, coefficient by coefficient,
the summation-by-parts identity that converts damped blocks
sum_{n=N}^{M} a_n n^{-eps} n^{-s} into a telescoped combination of the
partial sums S_n D, the mechanism behind the log bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .norms import _vertical_sups, check_count, norm_h2_exact, norm_hp_rows
from .sampling import SamplerConfig
from .series import DirichletPoly, coeff_matrix, max_coeff_gap, partial_sum
from .spaces import row_norms


@dataclass(frozen=True)
class LogBoundRow:
    """One sweep point: truncation ratio at N and the same ratio over log N."""

    N: int
    ratio: float
    ratio_over_log: float
    p: float
    method: str
    std_error: float = 0.0


def abel_identity_check(
    D: DirichletPoly, N: int, M: int, eps: float
) -> tuple[DirichletPoly, DirichletPoly, float]:
    """Summation by parts on the block [N, M], both sides as polynomials.

    Left side: sum_{n=N}^{M} a_n n^{-eps} n^{-s}.  Right side:
    sum_{n=N}^{M-1} (S_n D)(n^{-eps} - (n+1)^{-eps})
    + (S_M D) M^{-eps} - (S_{N-1} D) N^{-eps}, that is sum_n w_n S_n D
    over n = N-1, ..., M.  The coefficient a_k lies in every S_n D with
    n >= k, so on the right it carries the tail sum of the weights w_n
    from n = max(k, N - 1): one cumulative sum serves every k <= M, and
    the cost is linear in the block.  Returns
    (lhs, rhs, gap) where gap is the largest coefficient-wise norm
    difference relative to the largest coefficient norm of D itself
    (the output scale can vanish when the block misses the support, the
    input scale cannot); exact arithmetic makes the two sides equal, so
    the gap is pure float rounding and must stay at the 1e-12 scale.
    """
    N = check_count(N, "N", 2)
    M = check_count(M, "M", N + 1)
    if M > D.max_index:
        raise ValueError(f"M={M} exceeds the largest stored index {D.max_index}")
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")

    lhs = DirichletPoly(
        {n: v * float(n) ** (-eps) for n, v in D.items() if N <= n <= M}, D.space
    )
    damp = np.arange(N, M + 1, dtype=np.float64) ** -eps
    weights = np.concatenate(([-damp[0]], damp[:-1] - damp[1:], [damp[-1]]))  # on S_{N-1} D, ..., S_M D
    tails = np.cumsum(weights[::-1])[::-1]
    rhs = DirichletPoly({k: v * tails[max(k - N + 1, 0)] for k, v in D.items() if k <= M}, D.space)

    scale = float(row_norms(coeff_matrix(D), D.space).max(initial=0.0))
    gap = max_coeff_gap(lhs, rhs)
    return lhs, rhs, gap / scale if scale > 0 else gap


def partial_sum_projection_check(D: DirichletPoly, N: int) -> bool:
    """S_N is an idempotent projection that never enlarges the H_2 norm.

    Both facts are checked exactly: the truncation of a truncation is
    itself, and the Parseval sum of a sub-map cannot exceed the full
    one (fsum is correctly rounded, and rounding is monotone).
    """
    S = partial_sum(D, N)
    if partial_sum(S, N) != S:
        return False
    if D.space.euclidean:
        return norm_h2_exact(S).value <= norm_h2_exact(D).value
    return True


def log_bound_experiment(
    family: Callable[[int], DirichletPoly],
    p: float,
    Ns: Sequence[int],
    cfg: SamplerConfig | None = None,
    *,
    t_samples: int = 8193,
    r_per_n: float = 100.0,
) -> list[LogBoundRow]:
    """Truncation-ratio sweep ||S_N D|| / ||D|| for D = family(max(Ns)).

    p = infinity uses the vertical-line sup scan with half-length
    R = r_per_n * N (R = r_per_n * max index for the denominator), each
    distinct scan once, on worker threads (`norms._vertical_sups`): a
    truncation keeping every term at the denominator's R reads exactly 1.
    Finite p makes one `norm_hp_rows` call with the weight rows 1 (the
    denominator) and 1[n <= N]: exact Parseval at p = 2 with Euclidean
    coefficients, else Monte Carlo on one sample set, every row with
    cfg.seed, so a truncation that keeps every term reads exactly 1.
    The std_error is the hypot of the two relative errors, which
    ignores their covariance on the shared samples.  Rows report ratio
    and ratio / log N; the log-bound principle says the latter stays
    bounded across the sweep.
    """
    Ns = [int(N) for N in Ns]
    if not Ns or any(N < 2 for N in Ns):
        raise ValueError("Ns must be a non-empty list of integers >= 2")
    if any(a >= b for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    D = family(max(Ns))
    if len(D) == 0:
        raise ValueError("family produced the zero polynomial")
    keys = D.indices()
    if math.isinf(p):
        scans = [(len(keys), r_per_n * max(D.max_index, 2))] + [(bisect_right(keys, N), r_per_n * N) for N in Ns]
        denom, *nums = _vertical_sups(D, scans, t_samples)
    else:
        ns = np.array(keys)
        weights = np.stack([np.ones(len(ns))] + [(ns <= N).astype(np.float64) for N in Ns])
        denom, *nums = norm_hp_rows(D, p, weights, cfg)
    rows = []
    for N, num in zip(Ns, nums):
        ratio = num.value / denom.value
        rel = math.hypot(num.std_error / num.value, denom.std_error / denom.value) if num.value > 0 else 0.0
        rows.append(LogBoundRow(N, ratio, ratio / math.log(N), float(p), num.method, ratio * rel))
    return rows
