"""Seeded torus samplers and deterministic reductions.

Two sampling schemes target the same Haar average over T^m:

- ``iid``: independent uniform angles in every coordinate;
- ``kronecker``: points on the flow t -> (p_1^{-it}, ..., p_m^{-it}) at
  IID times t drawn uniformly from a long interval.  The flow
  equidistributes because the log-primes are rationally independent, so
  both schemes estimate the same integral.

All randomness flows through ``numpy.random.default_rng(seed)`` and all
means are reduced over a fixed pairwise tree on the sample index, so a
given (samples, seed, scheme) triple reproduces bit-for-bit no matter
how the work is scheduled.
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


def derive_seed(seed: int, row: int) -> int:
    """Per-row seed for embarrassingly parallel tables: base seed XOR row index."""
    return seed ^ row


def kronecker_times(cfg: SamplerConfig) -> np.ndarray:
    """The Kronecker scheme's flow times: cfg.samples uniform draws from [0, KRONECKER_SPAN)."""
    return np.random.default_rng(cfg.seed).uniform(0.0, KRONECKER_SPAN, size=cfg.samples)


def torus_angles(cfg: SamplerConfig, m: int) -> np.ndarray:
    """(samples, m) array of angles; the sample points are exp(1j * angles)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if cfg.scheme == IID_UNIFORM:
        return np.random.default_rng(cfg.seed).uniform(0.0, 2.0 * math.pi, size=(cfg.samples, m))
    t = kronecker_times(cfg)
    logs = np.array([math.log(nth_prime(j)) for j in range(m)])
    return np.mod(-np.outer(t, logs), 2.0 * math.pi)


def pairwise_sum(x: np.ndarray) -> float:
    """Sum over a fixed binary tree on the index, independent of scheduling.

    The tree splits at the midpoint and adds leaves of at most 64 terms
    left to right, so the floating-point result is a pure function of
    the input vector.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)

    def rec(lo: int, hi: int) -> float:
        if hi - lo <= 64:
            total = 0.0
            for v in x[lo:hi]:
                total += float(v)
            return total
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid, hi)

    if x.size == 0:
        return 0.0
    return rec(0, x.size)


def pairwise_mean(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("mean of an empty sample")
    return pairwise_sum(x) / x.size
