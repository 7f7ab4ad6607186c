"""Translation, twist and the vanishing-translation norm profile."""

import math
import tracemalloc

import numpy as np
import pytest

from bohrlift import (
    CoeffSpace,
    DirichletPoly,
    SamplerConfig,
    TwistPoint,
    bohr_lift,
    eps_gap_bound_h2,
    eps_norm_profile,
    gallery,
    hplus_norm,
    max_coeff_gap,
    norm_h2_exact,
    norm_hp_mc,
    translate,
    twist,
)
from bohrlift import norms
from bohrlift.errors import EstimatorInconsistencyError
from bohrlift.translations import EPS_CROSS_CHECK
from conftest import ON_2_AND_7, random_dirichlet

TWO_TERM = DirichletPoly({1: 1.0, 2: 1.0})


def test_translate_values():
    D = translate(TWO_TERM, 1.0)
    assert D[1] == 1.0
    assert D[2] == pytest.approx(0.5)
    assert translate(TWO_TERM, 0.0) == TWO_TERM


def test_translate_semigroup(rng):
    D = random_dirichlet(rng, max_index=300, dim=2)
    z1, z2 = 0.3 + 0.7j, 0.2 - 0.1j
    gap = max_coeff_gap(translate(translate(D, z1), z2), translate(D, z1 + z2))
    assert gap < 1e-12


def test_imaginary_translation_preserves_h2(rng):
    D = random_dirichlet(rng, max_index=500, max_terms=20)
    before = norm_h2_exact(D).value
    after = norm_h2_exact(translate(D, 4.2j)).value
    assert abs(before - after) <= 1e-12 * max(before, 1.0)


def test_twist_point_validation():
    with pytest.raises(ValueError):
        TwistPoint([0.5])  # not unimodular
    th = TwistPoint.from_phases([0.0, math.pi])
    assert th[0] == pytest.approx(1.0)
    assert th[1] == pytest.approx(-1.0)


def test_twist_involution(rng):
    D = random_dirichlet(rng, max_index=100, dim=3)
    th = TwistPoint.random(bohr_lift(D).width, seed=5)
    back = twist(twist(D, th), th.conjugate())
    assert max_coeff_gap(back, D) < 1e-12


def test_twist_preserves_h2(rng):
    D = random_dirichlet(rng, max_index=200)
    th = TwistPoint.random(bohr_lift(D).width, seed=1)
    assert abs(norm_h2_exact(twist(D, th)).value - norm_h2_exact(D).value) <= 1e-12


def test_twist_needs_coverage():
    D = DirichletPoly({5: 1.0})  # needs 3 coordinates
    with pytest.raises(ValueError, match="twist point has 1 angles but the support uses 3 primes"):
        twist(D, TwistPoint.from_phases([0.1]))


def test_profile_closed_form():
    # ||(1 + 2^{-s})_eps||_2 = sqrt(1 + 4^{-eps})
    rows = eps_norm_profile(TWO_TERM, 2.0, [1.0, 0.1, 0.01])
    values = [est.value for _, est in rows]
    assert values[0] == pytest.approx(1.118034, abs=1e-6)
    assert values[1] == pytest.approx(1.367680, abs=1e-6)
    assert values[2] == pytest.approx(1.409338, abs=1e-6)
    for (e, est) in rows:
        assert est.value == pytest.approx(math.sqrt(1 + 4.0 ** (-e)), abs=1e-12)
        assert est.method == "exact_parseval"


def test_profile_monotone_and_convergent(rng):
    D = random_dirichlet(rng, max_index=400, max_terms=18)
    rows = eps_norm_profile(D, 2.0)
    eps_grid = [e for e, _ in rows]
    values = [est.value for _, est in rows]
    assert all(e1 > e2 for e1, e2 in zip(eps_grid, eps_grid[1:]))  # grid descends
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))  # norm grows as eps -> 0
    base = norm_h2_exact(D).value
    for e, v in zip(eps_grid, values):
        assert abs(v - base) <= eps_gap_bound_h2(D, e) + 1e-12


def test_profile_mc_uses_common_randomness():
    # p = 4 rows share one sample set, so the profile is monotone exactly
    rows = eps_norm_profile(TWO_TERM, 4.0, [1.0, 0.5, 0.25, 0.125], SamplerConfig(samples=4000, seed=3))
    values = [est.value for _, est in rows]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
    assert all(est.method == "torus_mc" for _, est in rows)


def test_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        eps_norm_profile(TWO_TERM, 2.0, [0.5, -0.1])
    with pytest.raises(ValueError):
        eps_norm_profile(TWO_TERM, 2.0, [])


def test_hplus_equals_h2_on_polynomials(rng):
    D = random_dirichlet(rng, max_index=300, max_terms=10)
    est = hplus_norm(D, 2.0)
    assert est.value == norm_h2_exact(D).value


def test_hplus_mc_path():
    est = hplus_norm(TWO_TERM, 4.0, SamplerConfig(samples=20000, seed=9))
    assert est.value == pytest.approx(6.0**0.25, abs=5 * max(est.std_error, 1e-4))


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_a_constant_gets_its_exact_norm_from_every_estimator(scheme):
    # every H_p norm of a constant is its coefficient norm, here the l1 norm 7 of (3, 4)
    D = DirichletPoly({1: [3.0, 4.0]}, CoeffSpace(2, "l1"))
    cfg = SamplerConfig(1000, 0, scheme)
    rows = eps_norm_profile(D, 4.0, [0.5, EPS_CROSS_CHECK], cfg)
    for est in [norm_hp_mc(D, 4.0, cfg), hplus_norm(D, 4.0, cfg)] + [est for _, est in rows]:
        assert (est.value, est.method, est.std_error, est.samples) == (7.0, "exact_parseval", 0.0, 0)


# sorted-n order (1, 2, 3, 4, 6) differs from sorted multi-index order
MIXED = DirichletPoly({1: 1.0, 2: 1.0, 3: 0.3, 4: 2.0, 6: -1.5})


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
@pytest.mark.parametrize("p", [1.0, 4.0])
def test_profile_small_eps_matches_plain_estimate(scheme, p):
    # each coefficient row must meet the monomial of its own index
    cfg = SamplerConfig(20000, 0, scheme)
    eps = EPS_CROSS_CHECK
    probe = eps_norm_profile(MIXED, p, [eps], cfg)[0][1]
    plain = norm_hp_mc(MIXED, p, cfg)
    bound = math.fsum(abs(v[0]) * (1.0 - n ** (-eps)) for n, v in MIXED.items()) + 1e-9
    assert abs(probe.value - plain.value) <= bound
    assert hplus_norm(MIXED, p, cfg).value == plain.value


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_profile_rows_pair_weights_with_their_index(scheme):
    # each row weighs the coefficient at n by n^-eps, n the original index
    cfg = SamplerConfig(20000, 0, scheme)
    for eps, est in eps_norm_profile(ON_2_AND_7, 4.0, [0.25, 1.0], cfg):
        plain = norm_hp_mc(translate(ON_2_AND_7, eps), 4.0, cfg)
        assert est.value == pytest.approx(plain.value, rel=1e-12, abs=0.0)


def test_profile_memory_stays_chunked():
    # 10,000 samples x 1,000 terms would be a 153 MiB monomial matrix
    D = DirichletPoly({n: 1.0 for n in range(1, 1001)})
    cfg = SamplerConfig(10_000, 0, "kronecker")
    tracemalloc.start()
    try:
        rows = eps_norm_profile(D, 4.0, None, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 21
    assert peak <= 32 * 2**20


def test_profile_memory_follows_the_chunk_on_vector_coefficients(monkeypatch):
    # (21 rows, 10,000 samples, 64) values of gallery("c0", 64) alone would take 205 MiB
    monkeypatch.setattr(norms, "_worker_count", lambda: 16)  # the work budget, not the CPUs, bounds the workers
    tracemalloc.start()
    try:
        rows = eps_norm_profile(gallery("c0", 64), 4.0, None, SamplerConfig(10_000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 21
    assert peak <= 64 * 2**20


def test_vector_valued_twist_and_translate(rng):
    D = random_dirichlet(rng, max_index=60, dim=4)
    th = TwistPoint.random(bohr_lift(D).width, seed=2)
    gap = max_coeff_gap(twist(twist(D, th), th.conjugate()), D)
    assert gap < 1e-12
    assert abs(norm_h2_exact(translate(D, 1.3j)).value - norm_h2_exact(D).value) <= 1e-12
