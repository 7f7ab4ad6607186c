"""Hardy-norm estimators on the polytorus and on vertical lines.

The H_p norm of a Dirichlet polynomial has two equal faces: the L_p
norm of its Bohr lift over the polytorus under Haar measure, and the
limit of vertical-line averages ((1/2R) int_{-R}^{R} ||D(it)||^p dt)^{1/p}
as R grows, because the line t -> (2^{-it}, 3^{-it}, ...) equidistributes
on the torus.  This module estimates the torus face exactly (p = 2 with
Euclidean coefficients), by seeded Monte Carlo (any finite p >= 1), or
by a lattice scan (p = infinity, a certified lower bound), and the line
face by trapezoid quadrature; the test suite pits the faces against
each other.  At finite p, `norm_hp_rows` alone chooses between the
two torus methods, for a stack of real per-term weight rows (plain
norms, translates, smoothings, truncations, restrictions) on one
sample set.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import DimensionCapError, NoClosedFormError
from .multiindex import EMPTY_INDEX
from .primes import factorize_all
from .sampling import (
    KRONECKER_QMC,
    SamplerConfig,
    pairwise_mean,
    pairwise_sum,
    point_blocks,
    stream_seeds,
)
from .series import (
    _CHUNK_ENTRIES,
    DirichletPoly,
    PowerPoly,
    _line_grid_values,
    bohr_lift,
    coeff_matrix,
)
from .spaces import max_row_norm, row_norms

EXACT_PARSEVAL = "exact_parseval"
TORUS_MC = "torus_mc"
TORUS_GRID_SUP = "torus_grid_sup"
VERTICAL_MEAN = "vertical_mean"
VERTICAL_SUP = "vertical_sup"

#: Most used coordinates the exhaustive lattice scan will accept by default.
DEFAULT_GRID_DIM_CAP = 8


@dataclass(frozen=True)
class NormEstimate:
    """One norm value together with how it was produced.

    ``std_error`` is zero exactly when the method is deterministic
    (exact formula, lattice scan, or line quadrature).  ``R`` records
    the vertical-line half-length of the line estimators, and
    ``scheme`` the torus sampling scheme of the Monte Carlo ones; the
    serialized form carries each only when it is set.
    """

    value: float
    method: str
    std_error: float = 0.0
    samples: int = 0
    seed: int = 0
    R: float | None = None
    scheme: str | None = None

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.R is not None:
            out["R"] = self.R
        if self.scheme is not None:
            out["scheme"] = self.scheme
        return out


def _parseval(C: np.ndarray) -> NormEstimate:
    """sqrt(sum_i ||c_i||_2^2) over the rows c_i of a coefficient matrix.

    Sums run through math.fsum, so dropping terms can never enlarge the value.
    """
    squares = [math.fsum(row) for row in (C.real**2 + C.imag**2).tolist()]
    return NormEstimate(math.sqrt(math.fsum(squares)), EXACT_PARSEVAL)


def norm_h2_exact(poly) -> NormEstimate:
    """H_2 norm by orthonormality of the monomials: sqrt(sum_n ||a_n||_2^2).

    Valid only when the coefficient norm is the Euclidean one (l2, or
    any norm in dimension 1); other norms admit no closed form and are
    rejected in favor of the Monte Carlo estimator.
    """
    if not poly.space.euclidean:
        raise NoClosedFormError(
            f"no closed form for H_2 with coefficient norm {poly.space.norm!r}; use norm_hp_mc"
        )
    return _parseval(coeff_matrix(poly))


def check_p(p: float) -> None:
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")


def _scaled_powers(x: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(x / m)^p and m, with m = max(x).

    The largest scaled value is exactly 1, so at any p the powers
    neither overflow nor all underflow (their mean is at least 1 over
    the count); a power mean of x is m times that of x / m.  An x whose
    largest value is zero or not finite is left unscaled (m = 1).
    """
    m = float(x.max())
    if not 0.0 < m < math.inf:
        m = 1.0
    return (x / m) ** p, m


def mc_estimate(x: np.ndarray, p: float, cfg: SamplerConfig) -> NormEstimate:
    """(mean of x^p)^{1/p} over the cfg.samples sample norms x, with its standard error.

    The standard error follows the delta method, value * sqrt(relvar /
    samples) / p with relvar the sample variance of x^p / (mean of x^p),
    which does not underflow at large p as the variance of x^p would.
    """
    xp, m = _scaled_powers(x, p)
    mean = pairwise_mean(xp)
    value = mean ** (1.0 / p)
    if cfg.samples > 1 and value > 0.0:
        relvar = pairwise_sum(((xp - mean) / mean) ** 2) / (cfg.samples - 1)
        std_error = value * math.sqrt(relvar / cfg.samples) / p
    else:
        std_error = 0.0
    return NormEstimate(m * value, TORUS_MC, m * std_error, cfg.samples, cfg.seed, scheme=cfg.scheme)


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_WORK_BUDGET = 24 * 16 * _CHUNK_ENTRIES  # bytes of all workers' arrays together, whatever the CPU count (24 complex chunks)

#: Chunks of points a Monte Carlo worker draws per random() call of each stream.
_DRAW_CHUNKS = 3


def _run_shares(work, shares: list) -> None:
    """work(share) for each share, the first in this thread and the others on a thread pool; raises after all have joined."""
    from concurrent.futures import ThreadPoolExecutor  # not at module level: it loads logging, 6 ms of `import bohrlift`
    with ThreadPoolExecutor(max(1, len(shares) - 1)) as pool:  # threads start on submit: one share starts none
        futures = [pool.submit(work, part) for part in shares[1:]]
        work(shares[0])
    for future in futures:
        future.result()


def _mc_rows(poly, ps, weights: np.ndarray, cfg: SamplerConfig) -> list[list[NormEstimate]]:
    """Monte Carlo H_p estimates, at every p in ps, of each weighted polynomial sum_i w_i a_i z^alpha_i.

    weights holds one real row w per polynomial, in poly.indices()
    order.  All estimates share one sample set, and one monomial plan
    serves every chunk of points.  Under the Kronecker scheme a
    Dirichlet polynomial is evaluated unlifted at the flow times
    (omega^alpha(n) = n^{-it}), so no prime position is looked up;
    otherwise the lift (`factorize_all`) is packed onto the k coordinates
    its support uses (`series.pack`), the others integrating out, and is
    evaluated at angles drawn at its positions `active`, each from its
    own stream (`sampling.point_blocks`), whose seed sequences are built
    once here (`sampling.stream_seeds`).

    The chunks are split into contiguous shares, one per CPU
    (`_worker_count`) while the workers' work arrays and draw blocks fit
    _WORK_BUDGET in bytes, and run by `_run_shares`.  Each worker takes a
    workspace from the free list (`series.workspace`) for its kernel
    arrays and its draw block, and gives it back after its share.  It
    starts its streams once, at the first row of its share, draws
    _DRAW_CHUNKS chunks per block, coordinate-major, evaluates each
    chunk-wide column view of the block (transposed: column-major
    angles, as the plan reads them), and writes that chunk's norm for
    every weight row from the row-contiguous (rows, terms, dim) weighted
    stack, so a stacked row gives the bits of the same row estimated
    alone.  Neither chunks nor streams depend on the split or the draw
    block, so no value does.
    A row whose weights vanish off the constant term (n = 1, or the
    empty index) gets its exact norm (every H_p norm of a constant is
    the coefficient norm), with no samples.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        check_p(p)
    keys = poly.indices()
    dirichlet = isinstance(poly, DirichletPoly)
    C = coeff_matrix(poly)
    moving = weights[:, [i for i, key in enumerate(keys) if key not in (1, EMPTY_INDEX)]].any(axis=1)
    exact = iter(row_norms((weights[~moving][:, :, None] * C).sum(axis=1), poly.space).tolist())
    out = [None if m else [NormEstimate(next(exact), EXACT_PARSEVAL, 0.0, 0, cfg.seed)] * len(ps) for m in moving]
    if not moving.any():
        return out
    if dirichlet and cfg.scheme == KRONECKER_QMC:
        target, order, active = poly, slice(None), None
    else:
        lifted = factorize_all(keys) if dirichlet else keys
        active, target = series.pack(PowerPoly._moved({alpha: poly[key] for alpha, key in zip(lifted, keys)}, poly.space))
        order = sorted(range(len(keys)), key=lambda i: lifted[i].order_key())  # target's term order: pack keeps the lift's
    # (rows, terms, dim) in target's term order; each row C-contiguous, so a stacked row takes its unit row's dot kernel
    stack = np.ascontiguousarray(weights[moving][:, order])[:, :, None] * C[order]
    S = cfg.samples
    chunk, work_bytes, monomials = series.monomial_map(target)
    seeds = stream_seeds(cfg, active)
    step = _DRAW_CHUNKS * chunk
    x = np.empty((len(stack), S))

    def share(starts):
        lo, hi = starts[0], min(starts[-1] + chunk, S)
        with series.workspace() as work:
            (buf,) = series._work_views(work, 2, np.float64, [len(seeds)], min(step, hi - lo), step)
            for at, block in zip(range(lo, hi, step), point_blocks(cfg, active, lo, hi, step, seeds, buf)):
                for a in range(0, block.shape[-1], chunk):
                    E = monomials(block[..., a : a + chunk].T, work)
                    for row, c in zip(x, stack):
                        row[at + a : at + a + len(E)] = row_norms(E @ c, poly.space)

    starts = range(0, S, chunk)
    draw_bytes = 8 * (1 if active is None else len(active)) * step  # iid streams, or the flow's angles
    n = min(_worker_count(), len(starts), max(1, _WORK_BUDGET // (work_bytes + draw_bytes)))
    _run_shares(share, [starts[len(starts) * i // n : len(starts) * (i + 1) // n] for i in range(n)])
    for r, norms in zip(np.flatnonzero(moving), x):
        out[r] = [mc_estimate(norms, p, cfg) for p in ps]
    return out


def norm_hp_rows(poly, p: float, weights: np.ndarray, cfg: SamplerConfig | None = None) -> list[NormEstimate]:
    """Finite-p H_p norms of the weighted polynomials sum_i w_i a_i z^alpha_i, one per row w of weights.

    The rows are real, in poly.indices() order.  For p = 2 with
    Euclidean coefficients every norm is exact Parseval; otherwise all
    are Monte Carlo estimates on one sample set (see `_mc_rows`), so
    differences between rows are not drowned by independent noise.
    """
    if p == 2.0 and poly.space.euclidean:
        C = coeff_matrix(poly)
        return [_parseval(w[:, None] * C) for w in weights]
    return [row[0] for row in _mc_rows(poly, [p], weights, SamplerConfig() if cfg is None else cfg)]


def norm_hp_mc(poly, p: float, cfg: SamplerConfig) -> NormEstimate:
    """Monte Carlo H_p estimate: (mean of ||lift(omega)||^p over samples)^{1/p}.

    The standard error follows the delta method (see `mc_estimate`); a
    constant gets its exact norm (see `_mc_rows`).  Fixed (samples,
    seed, scheme) reproduce bit-for-bit.
    """
    return _mc_rows(poly, [p], np.ones((1, len(poly))), cfg)[0][0]


def check_count(value, name: str, least: int) -> int:
    """A node count of at least `least` as a Python int, or a ValueError/TypeError.

    Only integers count: a float such as 16.5, a bool, or a string has
    no meaning as a node count, and a numpy integer is returned as int
    so that estimates stay JSON-encodable.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _axis_table(grid: int, n: int) -> np.ndarray:
    """(grid, n) values of z^e at the grid-th roots of unity z = exp(2 pi i g / grid).

    The phase comes from the integer residue g e mod grid, so a node
    shared by grids G and 2G gets identical table entries.
    """
    residues = np.multiply.outer(np.arange(grid), np.arange(n)) % grid
    return np.exp(2j * math.pi * residues / grid)


def lattice_value_chunks(P: PowerPoly, grid: int):
    """Values of P on the width-fold lattice of grid-th roots of unity.

    Yields (points, dim) value blocks in C order of the lattice, so a
    scan holds one block at a time whatever the lattice size.  On the
    lattice the values are an inverse DFT of P's coefficient tensor,
    pruned to its support, and the transform is separable: scatter the
    coefficients into a (d_1 + 1, ..., d_m + 1, dim) tensor, with every
    exponent folded mod grid (z^e = z^(e mod grid) on grid-th roots, so
    d_j is the largest folded exponent in coordinate j), then contract
    one axis at a time with the (grid, d_j + 1) table of `_axis_table`.
    The leading axis is contracted first, on the small tensor; each
    block then contracts the other axes for as many leading-axis slices
    as fit in _CHUNK_ENTRIES values.  A slice too large alone is scanned
    as the lattice of the other m - 1 coordinates, so no block holds
    more than _CHUNK_ENTRIES values, whatever the lattice size.  A
    tensor too large itself is never built: the leading coordinate is
    then scanned node by node from the terms, each node's terms being a
    polynomial in the other coordinates, scanned the same way.
    """
    m = P.width
    if m == 0:  # the one-point lattice
        yield coeff_matrix(P).sum(axis=0, keepdims=True)
        return
    folded = np.zeros((len(P), m), dtype=np.intp)
    for i, alpha in enumerate(P.indices()):
        for pos, e in alpha.pairs:
            folded[i, pos] = e % grid
    tables = [_axis_table(grid, int(d) + 1) for d in folded.max(axis=0)]
    yield from _term_value_chunks(folded, coeff_matrix(P), tables)


def _term_value_chunks(folded: np.ndarray, C: np.ndarray, tables: list):
    """The blocks of `lattice_value_chunks` for terms with folded exponents (terms, m) and coefficients C (terms, dim)."""
    shape = tuple(t.shape[1] for t in tables)
    if len(tables) > 1 and math.prod(shape) * C.shape[1] > _CHUNK_ENTRIES:
        for row in tables[0]:  # at this node of the leading coordinate, a polynomial in the others
            yield from _term_value_chunks(folded[:, 1:], C * row[folded[:, 0], None], tables[1:])
        return
    T = np.zeros(shape + (C.shape[1],), dtype=np.complex128)
    np.add.at(T, tuple(folded.T), C)  # folded terms may share a cell
    yield from _tensor_value_chunks(T, tables)


def _tensor_value_chunks(T: np.ndarray, tables: list):
    """The blocks of `lattice_value_chunks` for a coefficient tensor T of shape (d_1 + 1, ..., d_m + 1, dim)."""
    m, grid, dim = len(tables), len(tables[0]), T.shape[-1]
    lead = (tables[0] @ T.reshape(T.shape[0], -1)).reshape((grid,) + T.shape[1:])
    if m > 1 and grid ** (m - 1) * dim > _CHUNK_ENTRIES:
        for X in lead:
            yield from _tensor_value_chunks(X, tables[1:])
        return
    step = max(1, _CHUNK_ENTRIES // (grid ** (m - 1) * dim))
    for lo in range(0, grid, step):
        X = lead[lo : lo + step]
        for j in range(m - 1, 0, -1):  # trailing axes back to front, which keeps C order
            s = X.shape
            X = np.matmul(tables[j], X.reshape(math.prod(s[:j]), s[j], -1))
            X = X.reshape(s[:j] + (grid,) + s[j + 1 :])
        yield X.reshape(-1, dim)


def norm_hinf_grid(poly, grid_per_dim: int, dim_cap: int = DEFAULT_GRID_DIM_CAP) -> NormEstimate:
    """Sup of ||lift|| over the lattice of grid_per_dim-th roots of unity.

    A certified lower bound for the true sup norm (the scan only visits
    lattice points).  Along refining grids (G, 2G, 4G, ...) the value is
    non-decreasing since each lattice contains the previous one.  The
    values come from the separable engine of `lattice_value_chunks`,
    which folds exponents mod G, so any integer G >= 1 is valid.  The
    scan runs on the k used coordinates (`series.pack`), capped to keep
    the G^k lattice enumerable, and reports G^k points.
    """
    G = check_count(grid_per_dim, "grid_per_dim", 1)
    _, P = series.pack(bohr_lift(poly) if isinstance(poly, DirichletPoly) else poly)
    k = P.width
    if k > dim_cap:
        raise DimensionCapError(
            f"lattice scan over {k} used coordinates exceeds the cap {dim_cap}"
        )
    best = 0.0
    for vals in lattice_value_chunks(P, G):
        best = max(best, max_row_norm(vals, P.space))
    return NormEstimate(best, TORUS_GRID_SUP, 0.0, G**k)


def _line_spacing(D: DirichletPoly, R: float, t_samples) -> tuple[float, float, int]:
    """(h, R, T) of the T = t_samples centred nodes of [-R, R], h = 2R/(T - 1), for a finite positive R and an integer T >= 2."""
    if not isinstance(D, DirichletPoly):
        raise TypeError("vertical-line estimators need a Dirichlet polynomial")
    T = check_count(t_samples, "t_samples", 2)
    h = 2.0 * R / (T - 1)
    if not (h > 0 and math.isfinite(h)):  # refuses a NaN, infinite or non-positive R too
        raise ValueError(f"R must be finite and positive, with a finite nonzero spacing 2R/(t_samples - 1); got R = {R!r}")
    return h, float(R), T


def vertical_mean(D: DirichletPoly, p: float, R: float, t_samples: int) -> NormEstimate:
    """Trapezoid value of ((1/2R) int_{-R}^{R} ||D(it)||^p dt)^{1/p}.

    Converges to the H_p norm as R grows; use `vertical_mean_diagnostic`
    to watch the approach along R, 2R, 4R.
    """
    check_p(p)
    dt, R, T = _line_spacing(D, R, t_samples)
    vp, m = _scaled_powers(row_norms(_line_grid_values(D, dt, T), D.space), p)
    integral = (pairwise_sum(vp) - 0.5 * (vp[0] + vp[-1])) * dt
    value = m * float(integral / (2.0 * R)) ** (1.0 / p)
    return NormEstimate(value, VERTICAL_MEAN, 0.0, T, 0, R=R)


def vertical_sup(D: DirichletPoly, R: float, t_samples: int) -> NormEstimate:
    """Max of ||D(it)|| over the centred uniform grid of [-R, R]; lower bound for the sup.

    An odd t_samples places a node at exactly t = 0.  As R grows the
    values climb toward the sup norm of the lift by equidistribution of
    the line inside the torus.
    """
    h, R, T = _line_spacing(D, R, t_samples)
    return NormEstimate(max_row_norm(_line_grid_values(D, h, T), D.space), VERTICAL_SUP, 0.0, T, 0, R=R)


def _vertical_sups(D: DirichletPoly, scans: list, t_samples) -> list[NormEstimate]:
    """vertical_sup(S, R, t_samples) for each (k, R) in scans, S the first k terms of D, each distinct scan made once.

    All are validated first, so an error is the first bad call's.  Each
    scan reads its prefix of D's coefficient rows and index logs
    (`series._line_grid_scan`): vertical_sup's bits on S.  Scans go
    largest first to the least loaded of at most one share per CPU
    (`_worker_count`) within _WORK_BUDGET, run by `_run_shares`; each
    grid is computed whole by one thread, so no value depends on the split.
    """
    keys = [(k, *_line_spacing(D, R, t_samples)) for k, R in scans]  # (k, h, R, T)
    T, C = keys[0][3], coeff_matrix(D)
    logs = np.log(np.array(D.indices(), dtype=np.float64))
    order = sorted(dict.fromkeys(keys), key=lambda key: -key[0])
    scan_bytes = max(series._line_grid_bytes(k, C.shape[1], T) for k, *_ in order) + 8 * T  # a scan's arrays and norms
    shares, sups = [[] for _ in range(min(_worker_count(), len(order), max(1, _WORK_BUDGET // scan_bytes)))], {}
    for key in order:  # to the least loaded share, a scan's load being its terms + 1 (times T)
        min(shares, key=lambda part: sum(k + 1 for k, *_ in part)).append(key)

    def share(part):
        for key in part:
            sups[key] = max_row_norm(series._line_grid_scan(logs[: key[0]], C[: key[0]], key[1], T), D.space)

    _run_shares(share, shares)
    return [NormEstimate(sups[key], VERTICAL_SUP, 0.0, T, 0, R=key[2]) for key in keys]


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
    return list(zip(ps, _mc_rows(D, ps, np.ones((1, len(D))), cfg)[0]))
