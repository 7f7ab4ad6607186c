"""Seeded torus samplers and deterministic reductions.

Two sampling schemes target the same Haar average over T^m:

- ``iid``: independent uniform angles in every coordinate;
- ``kronecker``: points on the flow t -> (p_1^{-it}, ..., p_m^{-it}) at
  IID times t drawn uniformly from a long interval.  The flow
  equidistributes because the log-primes are rationally independent, so
  both schemes estimate the same integral.

Each iid coordinate j has a stream of its own, ``default_rng([seed, j])``,
and the Kronecker flow times are the stream of ``default_rng(seed)``.  An
estimate draws only the coordinates its polynomial uses, their seed
sequences built once per estimate, each stream started once per row
range at its first double (``PCG64.advance``), and
all means are reduced over a fixed pairwise tree on the sample index, so
a given (samples, seed, scheme) triple reproduces bit-for-bit no matter
how the work is split or scheduled.
"""

from __future__ import annotations

import functools
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
        # SeedSequence splits a seed into 32-bit words and pads with zeros: [s + j * 2**32, 0] would read [s, j]
        if type(self.seed) is not int or not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must be an integer in [0, 2**32), got {self.seed!r}")
        if self.scheme not in VALID_SCHEMES:
            raise ValueError(f"scheme must be one of {VALID_SCHEMES}, got {self.scheme!r}")

    def with_seed(self, seed: int) -> "SamplerConfig":
        return SamplerConfig(self.samples, seed, self.scheme)


def time_rows(cfg: SamplerConfig, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the Kronecker scheme's flow times, cfg.samples uniform draws from [0, KRONECKER_SPAN)."""
    return next(point_blocks(cfg, None, lo, hi, max(1, hi - lo)), np.empty(0))


def torus_angles(cfg: SamplerConfig, m: int) -> np.ndarray:
    """(samples, m) array of angles, column j from coordinate j's own iid stream; the sample points are exp(1j * angles)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return angle_rows(cfg, range(m), 0, cfg.samples)


def stream_seeds(cfg: SamplerConfig, positions) -> list:
    """The SeedSequence of each stream `point_blocks` draws at `positions`, built once per pass and shared by its threads.

    Under the iid scheme coordinate j's is SeedSequence([seed, j]);
    otherwise (positions None, or Kronecker angles) the one stream is
    SeedSequence(seed).  PCG64 reads a sequence without changing it.
    """
    iid = positions is not None and cfg.scheme != KRONECKER_QMC
    return [np.random.SeedSequence([cfg.seed, j]) for j in positions] if iid else [np.random.SeedSequence(cfg.seed)]


def point_blocks(cfg: SamplerConfig, positions, lo: int, hi: int, step: int, seeds=None, out=None):
    """Rows [lo, hi) of the sample points, `step` rows at a time; a block holds only until the next is drawn.

    With positions None the points are the Kronecker flow times,
    KRONECKER_SPAN times the doubles of default_rng(seed), blocks of
    shape (rows,).  Otherwise they are the angles at the coordinates
    `positions`, coordinate-major blocks of shape (k, rows).  Kronecker
    angles are -t log p_j mod 2 pi at these coordinates alone.  The iid
    angle j of sample i is 2 pi times double i of default_rng([seed, j]),
    one stream per coordinate, so a coordinate's angles do not depend on
    which others are drawn, and default_rng([seed, 0]) is
    default_rng(seed).  Each stream is started once, at row lo, by
    PCG64.advance, from `seeds` (stream_seeds(cfg, positions), built
    here when not given), and fills `step` rows of its buffer row per
    random() call: a caller that evaluates a chunk at a time may draw
    several chunks per block, which gives the same doubles.  The blocks
    are drawn into `out`, a (streams, min(step, hi - lo)) float array,
    or into a new one.
    """
    iid = positions is not None and cfg.scheme != KRONECKER_QMC
    # default_rng(seed) past its first lo doubles: random() takes one 64-bit output per double
    seeds = stream_seeds(cfg, positions) if seeds is None else seeds
    streams = [np.random.Generator(np.random.PCG64(seq).advance(lo)) for seq in seeds]
    if positions is not None and not iid:
        neg_logs = -np.array([[math.log(nth_prime(j))] for j in positions])
    buf = np.empty((len(streams), min(step, hi - lo))) if out is None else out
    for a in range(lo, hi, step):
        block = buf[:, : min(step, hi - a)]
        for stream, row in zip(streams, block):
            stream.random(out=row)
        block *= 2.0 * math.pi if iid else KRONECKER_SPAN  # uniform(0, s) is s times random(), bit for bit
        if not iid:  # one row of flow times, or the flow's angles at the positions
            block = block[0] if positions is None else np.mod(neg_logs * block[0], 2.0 * math.pi)
        yield block


def angle_rows(cfg: SamplerConfig, positions, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the angles at the coordinates `positions`, shape (hi - lo, k); see `point_blocks`.

    Under the iid scheme column j holds rows [lo, hi) of the stream of
    coordinate positions[j] alone, whatever the other positions.  The
    array is the transpose of one coordinate-major block, so each
    coordinate's angles are contiguous.
    """
    positions = list(positions)
    return next(point_blocks(cfg, positions, lo, hi, max(1, hi - lo)), np.empty((len(positions), 0))).T


#: Largest leaf of the pairwise summation tree.
_LEAF = 64


@functools.lru_cache(maxsize=8)
def _tree(n: int) -> tuple:
    """pairwise_sum's tree on n terms, built once per length: (columns, counts, depths).

    Row k of columns indexes term k of every leaf, leaves longest first,
    so the counts[k] leaves that have a term k are the row's prefix.
    depths holds, from the deepest up, which nodes of a depth split and
    where its leaves, in index order, stand among the longest-first ones.
    """
    lo, hi = np.array([0]), np.array([n])
    tree = []  # per depth, the deepest first: which nodes split, and the bounds of its leaves
    while True:
        split = hi - lo > _LEAF
        tree.insert(0, (split, lo[~split], hi[~split]))
        if not split.any():
            break
        mid = (lo[split] + hi[split]) // 2
        lo = np.stack([lo[split], mid], axis=1).reshape(-1)
        hi = np.stack([mid, hi[split]], axis=1).reshape(-1)
    first = np.concatenate([lo for _, lo, _ in tree])
    size = np.concatenate([hi for _, _, hi in tree]) - first
    order = np.argsort(-size)
    k = np.arange(size.max())[:, None]
    places = np.split(np.argsort(order), np.cumsum([lo.size for _, lo, _ in tree])[:-1])
    return first[order] + k, np.count_nonzero(size[order] > k, axis=1), [(split, at) for (split, *_), at in zip(tree, places)]


def pairwise_sum(x: np.ndarray) -> float:
    """Sum over a fixed binary tree on the index, independent of scheduling.

    The tree splits at the midpoint and adds leaves of at most 64 terms
    left to right from 0.0, so the floating-point result is a pure
    function of the input vector, which is only read.  Over the tree of
    its length (`_tree`) each term position of the leaves is one vector
    add, and one depth's sums are paired at once, from the deepest up.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    columns, counts, depths = _tree(x.size)
    running = np.zeros(columns.shape[1])
    step = max(1, 8192 // len(running))  # 64 KiB gathers come from the heap, not from fresh pages
    for a in range(0, len(columns), step):
        # terms past a leaf's end are gathered but never added; clip keeps the last leaf's in range
        for terms, c in zip(x.take(columns[a : a + step], mode="clip"), counts[a : a + step]):
            running[:c] += terms[:c]
    sums = np.empty(0)
    for split, at in depths:
        pairs = sums[0::2] + sums[1::2]
        sums = np.empty(split.size)
        sums[~split], sums[split] = running[at], pairs
    return float(sums[0])


def pairwise_mean(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("mean of an empty sample")
    return pairwise_sum(x) / x.size
