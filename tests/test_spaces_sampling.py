"""Coefficient spaces, torus samplers and the deterministic reducers."""

import math

import numpy as np
import pytest

from bohrlift import IID_UNIFORM, KRONECKER_QMC, CoeffSpace, SamplerConfig, pairwise_mean, pairwise_sum, torus_angles
from bohrlift.sampling import KRONECKER_SPAN
from bohrlift.spaces import as_coeff_array, row_norms, vector_norm


def test_space_validation():
    assert CoeffSpace(1).euclidean
    assert CoeffSpace(3, "l2").euclidean
    assert not CoeffSpace(3, "linf").euclidean
    assert CoeffSpace(1, "linf").euclidean  # all norms agree in dim 1
    with pytest.raises(ValueError):
        CoeffSpace(0)
    with pytest.raises(ValueError):
        CoeffSpace(2, "l7")
    with pytest.raises(ValueError):
        CoeffSpace(True)  # a bool is not a dimension


def test_vector_norms():
    v = as_coeff_array([3.0, 4.0j])
    assert vector_norm(v, CoeffSpace(2, "l2")) == 5.0
    assert vector_norm(v, CoeffSpace(2, "l1")) == 7.0
    assert vector_norm(v, CoeffSpace(2, "linf")) == 4.0


def test_row_norms():
    rows = np.array([[3.0, 4.0], [0.0, 1.0]], dtype=np.complex128)
    out = row_norms(rows, CoeffSpace(2, "l2"))
    assert np.allclose(out, [5.0, 1.0])
    assert row_norms(rows, CoeffSpace(2, "linf")).tolist() == [4.0, 1.0]


def test_coeff_arrays_immutable():
    v = as_coeff_array(1.0 + 2.0j)
    with pytest.raises((ValueError, RuntimeError)):
        v[0] = 0.0


def test_sampler_config_validation():
    cfg = SamplerConfig(100, 7, IID_UNIFORM)
    assert cfg.with_seed(9).seed == 9
    with pytest.raises(ValueError):
        SamplerConfig(0, 0)
    with pytest.raises(ValueError):
        SamplerConfig(10, 0, "sobol")
    for samples, seed in ((True, 0), (10, True), (10, 1.5), (10, -1)):
        with pytest.raises(ValueError):
            SamplerConfig(samples, seed)


def test_torus_angles_shapes_and_determinism():
    cfg = SamplerConfig(50, 3)
    a = torus_angles(cfg, 4)
    b = torus_angles(cfg, 4)
    assert a.shape == (50, 4)
    assert np.array_equal(a, b)  # same seed, same angles
    assert np.all((a >= 0) & (a < 2 * np.pi))
    c = torus_angles(cfg.with_seed(4), 4)
    assert not np.array_equal(a, c)


def test_kronecker_angles_follow_the_flow():
    # the scheme must place each sample on the curve t -> (-t log p_j)_j
    from bohrlift import nth_prime

    cfg = SamplerConfig(20, 11, KRONECKER_QMC)
    a = torus_angles(cfg, 3)
    assert a.shape == (20, 3)
    assert np.all(a >= 0) and np.all(a < 2 * np.pi)
    t = np.random.default_rng(11).uniform(0.0, KRONECKER_SPAN, 20)
    logs = np.log([nth_prime(j) for j in range(3)])
    expect = np.mod(-t[:, None] * logs[None, :], 2.0 * np.pi)
    assert np.allclose(a, expect, atol=1e-9)


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10001)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), abs=1e-9)
    assert pairwise_mean(x) == pytest.approx(math.fsum(x) / len(x), abs=1e-12)


def test_pairwise_sum_deterministic_and_exact_small():
    assert pairwise_sum(np.array([1.0, 2.0, 3.0])) == 6.0
    assert pairwise_sum(np.array([])) == 0.0
    x = np.arange(1, 1000, dtype=np.float64)
    assert pairwise_sum(x) == float(999 * 1000 // 2)
