"""Seeded torus samplers and deterministic reductions.

Two sampling schemes target the same Haar average over T^m:

- ``iid``: independent uniform angles in every coordinate;
- ``kronecker``: points on the flow t -> (p_1^{-it}, ..., p_m^{-it}) at
  IID times t drawn uniformly from a long interval.  The flow
  equidistributes because the log-primes are rationally independent, so
  both schemes estimate the same integral.

All randomness is the stream of ``numpy.random.default_rng(seed)``, drawn
by row ranges that start a ``PCG64`` at their first double, and all
means are reduced over a fixed pairwise tree on the sample index, so a
given (samples, seed, scheme) triple reproduces bit-for-bit no matter
how the work is split or scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primes import nth_prime

IID_UNIFORM = "iid"
KRONECKER_QMC = "kronecker"
VALID_SCHEMES = (IID_UNIFORM, KRONECKER_QMC)

#: Length of the time interval the Kronecker scheme draws from.  Long
#: enough that the flow's averages match Haar averages far below the
#: statistical noise of any realistic sample count.
KRONECKER_SPAN = float(1 << 20)


@dataclass(frozen=True)
class SamplerConfig:
    """How many torus samples to draw, from which seed, under which scheme."""

    samples: int = 10_000
    seed: int = 0
    scheme: str = IID_UNIFORM

    def __post_init__(self):
        # exact types: bool is an int subclass
        if type(self.samples) is not int or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.scheme not in VALID_SCHEMES:
            raise ValueError(f"scheme must be one of {VALID_SCHEMES}, got {self.scheme!r}")

    def with_seed(self, seed: int) -> "SamplerConfig":
        return SamplerConfig(self.samples, seed, self.scheme)


def _stream(seed: int, skip: int) -> np.random.Generator:
    """default_rng(seed) past its first `skip` doubles: random() takes one 64-bit output per double."""
    return np.random.Generator(np.random.PCG64(seed).advance(skip))


def time_rows(cfg: SamplerConfig, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the Kronecker scheme's flow times, cfg.samples uniform draws from [0, KRONECKER_SPAN)."""
    return _stream(cfg.seed, lo).uniform(0.0, KRONECKER_SPAN, size=hi - lo)


def torus_angles(cfg: SamplerConfig, m: int) -> np.ndarray:
    """(samples, m) array of angles; the sample points are exp(1j * angles)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return angle_rows(cfg, range(m), 0, cfg.samples)


#: Angles drawn per block when angle_rows discards unused columns:
#: 2**16 doubles, 512 KiB, small enough to stay cache-resident.
_ANGLE_BLOCK = 65_536

#: Runs of unused iid columns at least this long are skipped with
#: PCG64.advance, which costs about as much as drawing 300 doubles.
_SKIP = 4_096


def angle_rows(cfg: SamplerConfig, positions, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the columns `positions` (increasing) of torus_angles(cfg, positions[-1] + 1), bit for bit.

    Kronecker angles are computed at these coordinates alone, from the
    flow times of `time_rows`.  The iid stream runs through every row
    of m = positions[-1] + 1 angles, the uniform(0, 2 pi) draw of a
    (samples, m) array, so that a seed keeps its stream whichever
    columns are kept; row lo starts lo * m doubles into it.  When some
    columns are dropped it is drawn a block of rows at a time into one
    reused buffer, unless some run of unused columns (the leading one
    included, which joins a row to the next) reaches _SKIP: then each
    row draws only its spans of columns between such runs and advances
    the generator over the runs.
    """
    positions = list(positions)
    if cfg.scheme == KRONECKER_QMC:
        logs = np.array([math.log(nth_prime(j)) for j in positions])
        return np.mod(-np.outer(time_rows(cfg, lo, hi), logs), 2.0 * math.pi)
    m = positions[-1] + 1 if positions else 0
    rng = _stream(cfg.seed, lo * m)
    out = np.empty((hi - lo, len(positions)))
    # uniform(0, 2 pi) is 2 pi times random(), bit for bit
    if len(positions) == m:  # every column kept
        rng.random(out=out)
        out *= 2.0 * math.pi
        return out
    cuts = [j for j in range(1, len(positions)) if positions[j] - positions[j - 1] > _SKIP]
    if cuts or positions[0] >= _SKIP:
        spans = []  # stream offsets [a, b) within a row drawn whole, the out columns they fill, and their picks
        for i, j in zip([0] + cuts, cuts + [len(positions)]):
            a = positions[i] if i or positions[0] >= _SKIP else 0
            spans.append((a, positions[j - 1] + 1, slice(i, j), np.array(positions[i:j]) - a))
        buf = np.empty(max(b - a for a, b, _, _ in spans))
        for r in range(hi - lo):
            end = 0  # stream offset within the row
            for a, b, cols, picks in spans:
                if a > end:
                    rng.bit_generator.advance(a - end)
                rng.random(out=buf[: b - a])
                out[r, cols] = buf[picks]
                end = b
        out *= 2.0 * math.pi
        return out
    rows = max(1, _ANGLE_BLOCK // m)
    block = np.empty((min(rows, hi - lo), m))
    for a in range(0, hi - lo, rows):
        drawn = block[: min(rows, hi - lo - a)]
        rng.random(out=drawn)
        np.multiply(drawn[:, positions], 2.0 * math.pi, out=out[a : a + drawn.shape[0]])
    return out


#: Largest leaf of the pairwise summation tree.
_LEAF = 64


def _leaf_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of x[lo:hi] for every leaf, each added left to right from 0.0."""
    # longest first, so the leaves that have a term k are a prefix
    order = np.argsort(lo - hi, kind="stable")
    first = lo[order]
    longer = np.searchsorted((lo - hi)[order], -np.arange(_LEAF))  # leaves longer than k
    running = np.zeros(lo.size)
    for k in range(np.count_nonzero(longer)):
        running[: longer[k]] += x[first[: longer[k]] + k]
    sums = np.empty(lo.size)
    sums[order] = running
    return sums


def pairwise_sum(x: np.ndarray) -> float:
    """Sum over a fixed binary tree on the index, independent of scheduling.

    The tree splits at the midpoint and adds leaves of at most 64 terms
    left to right, so the floating-point result is a pure function of
    the input vector.  The sums of one depth are computed together, from
    the deepest up, which keeps every addition of that definition.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        return 0.0
    lo, hi = np.array([0]), np.array([x.size])
    tree = []  # per depth: node bounds in index order, and which nodes split
    while True:
        split = hi - lo > _LEAF
        tree.append((lo, hi, split))
        if not split.any():
            break
        mid = (lo[split] + hi[split]) // 2
        lo = np.stack([lo[split], mid], axis=1).reshape(-1)
        hi = np.stack([mid, hi[split]], axis=1).reshape(-1)
    below = None
    for lo, hi, split in reversed(tree):
        sums = np.empty(lo.size)
        sums[~split] = _leaf_sums(x, lo[~split], hi[~split])
        if below is not None:
            sums[split] = below[0::2] + below[1::2]
        below = sums
    return float(below[0])


def pairwise_mean(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("mean of an empty sample")
    return pairwise_sum(x) / x.size
