"""Disc geometry, pointwise bounds and the restriction-norm criterion."""

import math

import numpy as np
import pytest

from bohrlift import (
    BOUNDED_SO_FAR,
    DIVERGENT_TREND,
    EMPTY_INDEX,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    RadiusVector,
    SamplerConfig,
    TwistPoint,
    bohr_lift,
    bohr_transform,
    c0_style_family,
    cayley,
    cayley_inv,
    gallery,
    hilbert_criterion,
    kernel_1d,
    kernel_m,
    kernel_m_series,
    khintchine_linear,
    norm_h2_exact,
    norm_hinf_grid,
    norm_hp_mc,
    normalize_for_schwarz,
    pointwise_eval_bound_h2,
    restrict,
    schwarz_bound_check,
    stolz_ratio,
    unit_direction_family,
)
from bohrlift import analysis, series


def test_cayley_values():
    assert cayley(0) == pytest.approx(1.0)
    assert cayley_inv(1.0) == pytest.approx(0.0)
    # the boundary of the disc maps to the imaginary axis
    s = cayley(0.6j)
    assert s.real == pytest.approx((1 - 0.36) / abs(1 - 0.6j) ** 2)


def test_cayley_roundtrip(rng):
    for _ in range(500):
        r = math.sqrt(rng.uniform()) * 0.999
        ph = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(ph), math.sin(ph))
        assert abs(cayley_inv(cayley(z)) - z) < 1e-12
        s = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        assert abs(cayley(cayley_inv(s)) - s) < 1e-12 * max(1.0, abs(s))


def test_cayley_rejects_outside():
    with pytest.raises(ValueError):
        cayley(1.0)
    with pytest.raises(ValueError):
        cayley(2.0j)
    with pytest.raises(ValueError):
        cayley_inv(-0.5)  # left half-plane


NAN = float("nan")
_Z1 = PowerPoly({MultiIndex.unit(0): 0.5})


@pytest.mark.parametrize(
    "call",
    [
        lambda: TwistPoint([NAN]),
        lambda: TwistPoint.from_phases([NAN]),
        lambda: kernel_1d(NAN, 0.5),
        lambda: kernel_1d(1.0, NAN),
        lambda: kernel_m([NAN], [1.0], RadiusVector([0.5])),
        lambda: kernel_m([1.0], [NAN], RadiusVector([0.5])),
        lambda: kernel_m_series([NAN], [1.0], RadiusVector([0.5]), 4),
        lambda: kernel_m_series([1.0], [NAN], RadiusVector([0.5]), 4),
        lambda: cayley(NAN),
        lambda: cayley_inv(NAN),
        lambda: cayley_inv(complex(0.0, NAN)),
        lambda: stolz_ratio(0.5, NAN),
        lambda: schwarz_bound_check(_Z1, [NAN, 0.1]),
        lambda: pointwise_eval_bound_h2(_Z1, [0.1, NAN]),
    ],
    ids=[
        "twist-point", "twist-phases", "kernel_1d-omega", "kernel_1d-z", "kernel_m-omega", "kernel_m-z",
        "kernel_m_series-omega", "kernel_m_series-z", "cayley", "cayley_inv", "cayley_inv-imag",
        "stolz_ratio-t", "schwarz", "pointwise-h2",
    ],
)
def test_nan_inputs_are_refused_at_the_boundary(call):
    with pytest.raises(ValueError):
        call()


def test_stolz_ratio_frozen_values():
    lhs, rhs = stolz_ratio(1.0, 0.0)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    lhs, rhs = stolz_ratio(1.0, 1.0)
    target = (math.sqrt(5.0) + 1.0) / (2.0 * math.sqrt(2.0))
    assert lhs == pytest.approx(target, abs=1e-12)
    assert rhs == pytest.approx(target, abs=1e-12)


def test_stolz_ratio_identity_on_grid():
    worst = 0.0
    for eps in np.linspace(0.02, 2.0, 60):
        for t in np.linspace(-10.0, 10.0, 60):
            lhs, rhs = stolz_ratio(float(eps), float(t))
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_stolz_validation():
    with pytest.raises(ValueError):
        stolz_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        stolz_ratio(-1.0, 0.0)


def test_schwarz_bound(rng):
    P = bohr_lift(DirichletPoly({2: 0.8, 3: 0.5j, 5: -0.3, 6: 0.4, 12: -0.2j}))
    Q = normalize_for_schwarz(P)
    for _ in range(300):
        z = rng.uniform(0, 0.97, Q.width) * np.exp(1j * rng.uniform(0, 2 * np.pi, Q.width))
        value, bound = schwarz_bound_check(Q, z)
        assert value <= bound + 1e-12


def test_schwarz_rejects_constant_term():
    P = bohr_lift(DirichletPoly({1: 0.5, 2: 0.1}))
    with pytest.raises(ValueError):
        schwarz_bound_check(P, np.array([0.5]))


def test_pointwise_bound(rng):
    P = bohr_lift(DirichletPoly({int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in range(1, 17)}))
    for _ in range(300):
        z = rng.uniform(0, 0.9, P.width) * np.exp(1j * rng.uniform(0, 2 * np.pi, P.width))
        value, bound = pointwise_eval_bound_h2(P, z)
        assert value <= bound + 1e-12


def test_pointwise_bound_near_sharp():
    # truncations of the product kernel approach equality
    from bohrlift import PowerPoly

    z = np.array([0.8 * np.exp(0.9j), 0.8 * np.exp(-2.0j)])
    T = 20
    coeffs = {}
    for a in range(T + 1):
        for b in range(T + 1):
            coeffs[MultiIndex((a, b))] = np.conj(z[0]) ** a * np.conj(z[1]) ** b
    K = PowerPoly(coeffs)
    value, bound = pointwise_eval_bound_h2(K, z)
    rel_gap = (bound - value) / bound
    predicted = 1.0 - math.prod(math.sqrt(1.0 - abs(x) ** (2 * (T + 1))) for x in z)
    assert rel_gap == pytest.approx(predicted, abs=1e-9)
    assert rel_gap <= 1e-2


def test_khintchine_linear():
    poly, norm = khintchine_linear([1.0, 2.0, 2.0], 3)
    assert norm == pytest.approx(3.0)
    assert norm_h2_exact(poly).value == pytest.approx(3.0)
    assert set(poly.indices()) == {MultiIndex.unit(k) for k in range(3)}
    _, n2 = khintchine_linear([1.0, 2.0, 2.0], 2)
    assert n2 == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ValueError):
        khintchine_linear([1.0], 2)


def test_materialize_unit_directions():
    fam = unit_direction_family(None)
    P3 = fam(3)
    assert set(P3.indices()) == {MultiIndex.unit(k) for k in range(3)}
    fam5 = unit_direction_family(5)
    P8 = fam5(8)
    assert len(P8.indices()) == 5


def test_criterion_capped_family():
    report = hilbert_criterion(unit_direction_family(5), 2.0, 10)
    values = [est.value for _, est in report.per_m]
    assert values == sorted(values)
    assert report.verdict == BOUNDED_SO_FAR
    assert report.sup_value == pytest.approx(math.sqrt(5.0))
    assert values[-1] == pytest.approx(math.sqrt(5.0))


def test_criterion_uncapped_family():
    report = hilbert_criterion(unit_direction_family(None), 2.0, 10)
    values = [est.value for _, est in report.per_m]
    assert report.verdict == DIVERGENT_TREND
    for m, est in report.per_m:
        assert est.value == pytest.approx(math.sqrt(m), abs=1e-12)


def test_criterion_c0_family():
    report = hilbert_criterion(c0_style_family(8), math.inf, 5, grid_per_dim=8)
    for _, est in report.per_m:
        assert est.value == pytest.approx(1.0, abs=1e-12)
    assert report.verdict == BOUNDED_SO_FAR
    assert report.sup_value == pytest.approx(1.0)


def test_criterion_report_dict():
    # m_max 6 so the trailing window sits past the cap and the sequence has stalled
    report = hilbert_criterion(unit_direction_family(2), 2.0, 6)
    d = report.to_dict()
    assert d["verdict"] == BOUNDED_SO_FAR
    assert len(d["per_m"]) == 6
    assert d["per_m"][0]["m"] == 1
    assert set(d["per_m"][0]) == {"m", "value", "method", "std_error", "samples", "seed"}


def test_criterion_mc_path():
    report = hilbert_criterion(
        unit_direction_family(3), 4.0, 5, SamplerConfig(samples=4000, seed=1)
    )
    values = [est.value for _, est in report.per_m]
    errs = [est.std_error for _, est in report.per_m]
    assert all(v > 0 for v in values)
    assert all(e > 0 for e in errs)
    # restriction can only grow with m, up to sampling noise; every m reads one
    # sample set, so past the cap, where the restrictions coincide, the values do too
    for (a, ea), (b, eb) in zip(zip(values, errs), zip(values[1:], errs[1:])):
        assert b >= a - 4 * (ea + eb)


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_criterion_rows_past_the_cap_are_equal(scheme):
    report = hilbert_criterion(unit_direction_family(3), 4.0, 5, SamplerConfig(2000, 1, scheme))
    values = [est.value for _, est in report.per_m]
    assert values[2] == values[3] == values[4]
    assert {est.seed for _, est in report.per_m} == {1}


def test_criterion_rows_are_the_restrictions_on_one_sample_set(monkeypatch):
    family = unit_direction_family()
    cfg = SamplerConfig(3000, 4, "kronecker")
    P = family(5)
    expected = [norm_hp_mc(restrict(P, m), 4.0, cfg).value for m in range(1, 6)]
    plans = []
    build = series.monomial_map
    monkeypatch.setattr(series, "monomial_map", lambda poly: plans.append(poly) or build(poly))
    report = hilbert_criterion(family, 4.0, 5, cfg)
    assert len(plans) == 1
    for value, (_, est) in zip(expected, report.per_m):
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)


def test_criterion_constant_restriction_is_exact():
    # f_1 is the constant 2; the one other term lives on the second coordinate
    def family(m):
        return restrict(PowerPoly({EMPTY_INDEX: 2.0, MultiIndex.unit(1): 1.0}), m)

    (_, first), (_, second) = hilbert_criterion(family, 4.0, 2, SamplerConfig(1000, 0)).per_m
    assert (first.value, first.method, first.samples, first.std_error) == (2.0, "exact_parseval", 0, 0.0)
    assert second.method == "torus_mc"


def test_criterion_rows_name_their_estimator():
    cfg = SamplerConfig(samples=500, seed=2)

    def methods(family, p, **kw):
        return {est.method for _, est in hilbert_criterion(family, p, 3, cfg, **kw).per_m}

    assert methods(unit_direction_family(3), 2.0) == {"exact_parseval"}
    # linf in dimension 4 is not Euclidean, so p = 2 has no closed form
    assert methods(c0_style_family(4), 2.0) == {"torus_mc"}
    assert methods(unit_direction_family(3), math.inf, grid_per_dim=4) == {"torus_grid_sup"}


def test_criterion_runs_a_user_defined_family():
    # any function m -> f_m is a family; here f_m = 1 + z_1 + ... + z_m
    calls = []

    def affine(m):
        calls.append(m)
        return PowerPoly({EMPTY_INDEX: 1.0, **{MultiIndex.unit(k): 1.0 for k in range(m)}})

    P = affine(2)
    assert MultiIndex(()) in P
    assert MultiIndex((1,)) in P
    assert MultiIndex((0, 1)) in P
    assert MultiIndex((2,)) not in P
    calls.clear()
    report = hilbert_criterion(affine, 2.0, 4)
    assert calls == [4]
    for m, est in report.per_m:
        assert est.method == "exact_parseval"
        assert est.value == pytest.approx(math.sqrt(m + 1), abs=1e-12)
    assert report.verdict == DIVERGENT_TREND


def test_criterion_rejects_a_family_that_is_not_a_power_polynomial():
    with pytest.raises(TypeError, match="PowerPoly"):
        hilbert_criterion(lambda m: DirichletPoly({1: 1.0, 2: 1.0}), 2.0, 3)


def test_c0_family_is_the_gallery_c0():
    P = bohr_lift(gallery("c0", 8))
    family = c0_style_family(8)
    assert family(4) == P
    for m in range(1, 6):
        assert family(m) == restrict(P, m)


def test_criterion_c0_family_default_grid():
    report = hilbert_criterion(c0_style_family(8), math.inf, 6)
    assert [m for m, _ in report.per_m] == list(range(1, 7))
    for _, est in report.per_m:
        assert abs(est.value - 1.0) <= 1e-12


def test_criterion_scans_each_distinct_restriction_once(monkeypatch):
    # c0(8) uses the primes 2, 3, 5 and 7: the restrictions at m = 5 and 6 keep the 8 terms of m = 4
    P = c0_style_family(8)(6)
    scans = []
    scan = analysis.norm_hinf_grid
    monkeypatch.setattr(analysis, "norm_hinf_grid", lambda poly, G: scans.append(len(poly)) or scan(poly, G))
    report = hilbert_criterion(c0_style_family(8), math.inf, 6)
    assert scans == [4, 6, 7, 8]  # n = 1, 2, 4, 8 on z_0, then 3 and 6, then 5, then 7
    assert [m for m, _ in report.per_m] == list(range(1, 7))
    for m, est in report.per_m:
        assert est == norm_hinf_grid(restrict(P, m), 16)
