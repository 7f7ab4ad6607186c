"""Polynomial containers, the lift and its inverse, truncation and restriction."""

import numpy as np
import pytest

from bohrlift import (
    EMPTY_INDEX,
    CoeffSpace,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    bohr_lift,
    bohr_transform,
    dirichlet_line_values,
    max_coeff_gap,
    partial_sum,
    power_eval,
    power_values_at_angles,
    restrict,
)
from bohrlift import series
from conftest import random_dirichlet


def test_dirichlet_basic():
    D = DirichletPoly({1: 1.0, 2: 2.0 + 1.0j})
    assert D.space.dim == 1
    assert D.max_index == 2
    assert D[2] == pytest.approx(2.0 + 1.0j)
    assert 3 not in D
    assert len(D) == 2


def test_zero_coefficients_dropped():
    D = DirichletPoly({1: 1.0, 5: 0.0, 7: 0.0 + 0.0j})
    assert 5 not in D
    assert 7 not in D
    assert len(D) == 1


def test_vector_coefficients():
    D = DirichletPoly({2: [1.0, 2.0], 3: [0.0, 1.0j]})
    assert D.space.dim == 2
    assert np.array_equal(D[2], np.array([1.0, 2.0], dtype=np.complex128))


def test_space_mismatch_rejected():
    with pytest.raises(ValueError):
        DirichletPoly({1: [1.0, 2.0], 2: [1.0, 2.0, 3.0]})


@pytest.mark.parametrize(
    "make",
    [
        lambda: DirichletPoly({1: float("nan")}),
        lambda: DirichletPoly({2: [1.0, complex(0.0, float("inf"))]}),
        lambda: PowerPoly({(1,): float("inf")}),
        lambda: PowerPoly({(): [0.0, float("nan")]}),
    ],
)
def test_non_finite_coefficients_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_bad_index_rejected():
    with pytest.raises(ValueError):
        DirichletPoly({0: 1.0})
    with pytest.raises(ValueError):
        DirichletPoly({-4: 1.0})


def test_algebra():
    A = DirichletPoly({1: 1.0, 2: 2.0})
    B = DirichletPoly({2: -2.0, 3: 1.0})
    S = A + B
    assert S[1] == 1.0 and S[3] == 1.0
    assert 2 not in S  # exact cancellation drops the key
    assert (A - A) == DirichletPoly({}, A.space)
    assert (2.0 * A)[2] == 4.0


def test_lift_transform_roundtrip(rng):
    for dim in (1, 3):
        for _ in range(50):
            D = random_dirichlet(rng, max_index=5000, dim=dim)
            assert bohr_transform(bohr_lift(D)) == D


def test_lift_known_support():
    D = DirichletPoly({1: 1.0, 2: 2.0, 6: 3.0, 8: 4.0})
    P = bohr_lift(D)
    assert P[EMPTY_INDEX] == 1.0
    assert P[MultiIndex((1,))] == 2.0
    assert P[MultiIndex((1, 1))] == 3.0
    assert P[MultiIndex((3,))] == 4.0
    assert P.degree == 3
    assert P.width == 2


def test_restrict():
    P = bohr_lift(DirichletPoly({2: 1.0, 3: 1.0, 5: 1.0, 6: 1.0}))
    R1 = restrict(P, 1)
    assert set(R1.indices()) == {MultiIndex((1,))}
    R2 = restrict(P, 2)
    assert MultiIndex((1, 1)) in R2 and MultiIndex((0, 0, 1)) not in R2
    assert restrict(R2, 2) == R2  # idempotent
    assert restrict(P, 0) == PowerPoly({}, P.space)


def test_partial_sum():
    D = DirichletPoly({1: 1.0, 4: 1.0, 9: 1.0})
    assert partial_sum(D, 4).max_index == 4
    assert partial_sum(D, 100) == D
    assert partial_sum(partial_sum(D, 9), 4) == partial_sum(D, 4)


def test_max_coeff_gap():
    A = DirichletPoly({1: 1.0, 2: 1.0})
    B = DirichletPoly({1: 1.0, 2: 1.0 + 3e-9j})
    assert max_coeff_gap(A, A) == 0.0
    assert max_coeff_gap(A, B) == pytest.approx(3e-9)


def test_power_eval_matches_direct():
    P = bohr_lift(DirichletPoly({1: 0.5, 2: 1.0, 3: -1.0j, 4: 2.0}))
    z = np.array([0.3 * np.exp(1.1j), 0.7 * np.exp(-0.4j)])
    direct = 0.5 + 1.0 * z[0] - 1.0j * z[1] + 2.0 * z[0] ** 2
    assert power_eval(P, z)[0] == pytest.approx(direct)


def test_angle_evaluation_consistency(rng):
    # evaluating the lift at omega = exp(i t log p) must equal D(it)
    D = random_dirichlet(rng, max_index=50, dim=2)
    P = bohr_lift(D)
    t = np.array([0.0, 1.7, -12.3])
    from bohrlift import nth_prime

    logs = np.log([nth_prime(j) for j in range(P.width)])
    theta = (-t[:, None] * logs[None, :]) % (2.0 * np.pi)
    via_torus = power_values_at_angles(P, theta)
    via_line = dirichlet_line_values(D, t)
    assert np.allclose(via_torus, via_line, atol=1e-12)


CHUNK_TERMS = 40


@pytest.mark.parametrize("entries", [1, 97, 64 * CHUNK_TERMS])
def test_evaluation_independent_of_chunk_size(monkeypatch, rng, entries):
    # chunk boundaries move BLAS blocking, so agreement is to rounding, not to the bit
    idx = rng.choice(np.arange(1, 500), size=CHUNK_TERMS, replace=False)
    D = DirichletPoly({int(n): rng.standard_normal(2) + 1j * rng.standard_normal(2) for n in idx})
    P = bohr_lift(D)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(300, P.width))
    t = np.linspace(-50.0, 50.0, 300)
    reference = power_values_at_angles(P, theta), dirichlet_line_values(D, t)
    monkeypatch.setattr(series, "_CHUNK_ENTRIES", entries)
    chunked = power_values_at_angles(P, theta), dirichlet_line_values(D, t)
    for ref, got in zip(reference, chunked):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_empty_polynomials():
    E = DirichletPoly({})
    assert E.max_index == 0
    assert bohr_lift(E) == PowerPoly({}, E.space)
    assert E != PowerPoly({}, E.space)  # equality needs the same polynomial type
    assert dirichlet_line_values(E, np.array([1.0])).shape == (1, 1)


def test_constant_term():
    P = PowerPoly({EMPTY_INDEX: 3.0})
    assert P.constant_term == 3.0
    assert P.width == 0
    assert P.degree == 0


def test_explicit_space():
    space = CoeffSpace(2, "linf")
    D = DirichletPoly({1: [1.0, 1.0]}, space)
    assert D.space == space
    assert bohr_lift(D).space == space
