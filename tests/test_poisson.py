"""Poisson kernels and radial smoothing of power polynomials."""

import math
import tracemalloc

import numpy as np
import pytest

from bohrlift import (
    EMPTY_INDEX,
    CoeffSpace,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    RadiusVector,
    SamplerConfig,
    bohr_lift,
    contraction_check,
    kernel_1d,
    kernel_m,
    kernel_m_series,
    max_coeff_gap,
    norm_hp_mc,
    poisson_convolve_exact,
    poisson_convolve_numeric,
)
from bohrlift import series
from bohrlift.errors import DimensionCapError
from bohrlift.norms import lattice_value_chunks


def test_kernel_point_values():
    # K(1, r) = (1 + r)/(1 - r) on the positive axis
    assert kernel_1d(1.0, 0.5) == pytest.approx(3.0)
    for r in (0.0, 0.3, 0.9):
        assert kernel_1d(1.0, r) == pytest.approx((1 + r) / (1 - r))
    # rotating both arguments together changes nothing
    w = np.exp(0.7j)
    assert kernel_1d(w, 0.4 * w) == pytest.approx(kernel_1d(1.0, 0.4))


def test_kernel_positive_and_normalized():
    ang = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = kernel_1d(np.exp(1j * ang), 0.8 * np.exp(0.3j))
    assert np.all(vals > 0)
    # Riemann sum of the kernel over the circle is 1 (unit mass)
    assert np.mean(vals) == pytest.approx(1.0, abs=1e-12)


def test_kernel_validation():
    with pytest.raises(ValueError):
        kernel_1d(1.1, 0.5)  # omega must be unimodular
    with pytest.raises(ValueError):
        kernel_1d(1.0, 1.0)  # z must be strictly inside
    # the series takes the product kernel's torus points
    r = RadiusVector([0.5])
    with pytest.raises(ValueError, match="omega must lie on the unit circle"):
        kernel_m_series([2.0], [1.0], r, terms=4)
    with pytest.raises(ValueError, match="z must lie on the unit circle"):
        kernel_m_series([1.0], [0.5], r, terms=4)
    with pytest.raises(ValueError, match="radius vector has 1 entries, need 2"):
        kernel_m_series([1.0, 1.0], [1.0, 1.0], r, terms=4)


def test_kernel_m_is_product():
    omega = np.exp(1j * np.array([0.4, -1.1, 2.0]))
    z = np.exp(1j * np.array([2.2, 0.7, -0.3]))
    r = RadiusVector([0.5, 0.35, 0.2])
    expected = math.prod(kernel_1d(omega[j], r.radii[j] * z[j]) for j in range(3))
    assert kernel_m(omega, z, r) == pytest.approx(expected)


def test_kernel_series_matches_closed_form():
    omega = np.exp(1j * np.array([0.4, -1.1]))
    z = np.exp(1j * np.array([2.2, 0.7]))
    r = RadiusVector([0.5, 0.35])
    km = kernel_m(omega, z, r)
    ks = kernel_m_series(omega, z, r, terms=80)
    assert abs(km - ks) < 1e-9


def test_radius_vector():
    r = RadiusVector([0.5, 0.25])
    assert (r * r).radii == (0.25, 0.0625)
    assert RadiusVector.uniform(0.3, 4).radii == (0.3, 0.3, 0.3, 0.3)
    with pytest.raises(ValueError):
        RadiusVector([1.0])
    with pytest.raises(ValueError):
        RadiusVector([-0.1])


def test_exact_convolution_scales_coefficients():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 2.0, 6: 3.0, 8: 4.0}))
    r = RadiusVector([0.5, 0.1])
    E = poisson_convolve_exact(P, r)
    assert E[EMPTY_INDEX] == 1.0
    assert E[bohr_lift(DirichletPoly({2: 1.0})).indices()[0]] == pytest.approx(1.0)  # 2 * 0.5
    assert E.get(P.indices()[-1]) is not None


def test_exact_vs_numeric():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: -0.25, 6: 1.5, 8: 2.0}))
    r = RadiusVector([0.5, 0.25])
    E = poisson_convolve_exact(P, r)
    N = poisson_convolve_numeric(P, r, 64)
    assert max_coeff_gap(E, N) < 1e-9


def test_numeric_coefficients_own_their_memory():
    # a view into the FFT spectrum would keep the whole G^m grid alive
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: -0.25, 6: 1.5, 8: 2.0}))
    N = poisson_convolve_numeric(P, RadiusVector([0.5, 0.25]), 64)
    assert len(N) == len(P)
    assert all(v.base is None and v.flags.owndata for _, v in N.items())


def test_exact_vs_numeric_width_three_vector():
    D = DirichletPoly({1: [1.0, 0.5], 2: [0.0, 1.0], 3: [2.0, 0.0], 5: [1.0, -1.0], 30: [0.5, 0.5]})
    P = bohr_lift(D)
    r = RadiusVector([0.4, 0.3, 0.6])
    E = poisson_convolve_exact(P, r)
    # rectangle-rule aliasing decays like r_max^(grid - deg); 32 points leak
    # ~0.6^31 ~ 1e-7 here, doubling the grid pushes it below double rounding
    assert max_coeff_gap(E, poisson_convolve_numeric(P, r, 32)) > 1e-9
    assert max_coeff_gap(E, poisson_convolve_numeric(P, r, 64)) < 1e-9


def full_array_poisson(P, r, G):
    """The quadrature formula on whole G^m arrays: every lattice value, its spectrum, every kernel product."""
    m, d = P.width, P.space.dim
    values = np.concatenate(list(lattice_value_chunks(P, G))).reshape((G,) * m + (d,))
    spectrum = np.fft.fftn(values, axes=tuple(range(m)))
    ell = np.arange(G)
    for j in range(m):
        rj = r.radii[j]
        kj = (1.0 - rj**2) / np.abs(1.0 - rj * np.exp(2j * math.pi * ell / G)) ** 2
        shape = [1] * (m + 1)
        shape[j] = G
        spectrum *= np.fft.fft(kj).reshape(shape)
    spectrum = spectrum / G ** (2 * m)
    return {alpha: spectrum[alpha.exponents + (0,) * (m - len(alpha.exponents))] for alpha in P.coeffs}


def random_power_poly(rng, width, terms, dim):
    exponents = {tuple(int(e) for e in rng.integers(0, 4, size=width)) for _ in range(terms)}
    return PowerPoly(
        {MultiIndex(a): rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for a in exponents},
        CoeffSpace(dim),
    )


@pytest.mark.parametrize("width, dim, G", [(1, 1, 9), (2, 3, 16), (3, 2, 64), (4, 2, 12)])
def test_numeric_poisson_is_the_full_array_formula_bit_for_bit(width, dim, G):
    # support entries only, in the same order of operations: the same bits
    rng = np.random.default_rng(width)
    for _ in range(3):
        P = random_power_poly(rng, width, 10, dim)
        r = RadiusVector(rng.uniform(0.3, 0.6, size=width).tolist())
        reference = full_array_poisson(P, r, G)
        N = poisson_convolve_numeric(P, r, G)
        assert N.coeffs.keys() == reference.keys()
        assert all(v.tobytes() == reference[alpha].tobytes() for alpha, v in N.items())


def test_numeric_poisson_memory_is_one_lattice_array():
    # G = 64, m = 3, dim 2: one spectrum array is 8 MiB; the full-array formula peaks at 24 MiB
    P = random_power_poly(np.random.default_rng(3), 3, 10, 2)
    assert P.width == 3
    tracemalloc.start()
    try:
        poisson_convolve_numeric(P, RadiusVector([0.4, 0.5, 0.6]), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def full_width_poly(rng, width, terms, dim, last=None):
    """terms distinct random exponent vectors in [0, 3]^width using every coordinate, with exponent `last` in the last one if given."""
    while True:
        alphas = {tuple(int(e) for e in rng.integers(0, 4, size=width)) for _ in range(terms)}
        if last is not None:
            alphas = {a[:-1] + (last,) for a in alphas}
        if len(alphas) == terms and all(any(a[j] for a in alphas) for j in range(width)):
            break
    return PowerPoly(
        {MultiIndex(a): rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for a in sorted(alphas)},
        CoeffSpace(dim),
    )


@pytest.mark.parametrize(
    "width, dim, G, last",
    [
        (1, 2, 40_000, None),  # every last-axis line split across engine blocks
        (1, 3, 50_000, None),  # and across three of them
        (4, 3, 20, None),  # at the dim cap
        (3, 2, 20, 2),  # one exponent in the last used coordinate
        (3, 2, 64, None),  # the benchmark's shape
    ],
)
def test_streaming_numeric_poisson_is_the_full_array_formula_bit_for_bit(width, dim, G, last):
    rng = np.random.default_rng([width, dim, G])
    for _ in range(2):
        P = full_width_poly(rng, width, 10 if width > 1 else 4, dim, last)
        r = RadiusVector(rng.uniform(0.3, 0.6, size=width).tolist())
        reference = full_array_poisson(P, r, G)
        N = poisson_convolve_numeric(P, r, G)
        assert N.coeffs.keys() == reference.keys()
        assert all(v.tobytes() == reference[alpha].tobytes() for alpha, v in N.items())


@pytest.mark.parametrize("dim, G, pieces", [(2, 40_000, 2), (3, 50_000, 3)])
def test_the_split_cases_split_each_line(dim, G, pieces):
    # the engine yields a width-1 line in pieces of at most _CHUNK_ENTRIES values
    P = full_width_poly(np.random.default_rng(4), 1, 4, dim)
    assert len(list(lattice_value_chunks(P, G))) == pieces


@pytest.mark.parametrize("width, dim, G, limit_mib", [(3, 2, 64, 5), (4, 1, 32, 6)])
def test_streaming_numeric_poisson_memory_is_the_pruned_spectrum_and_a_few_blocks(width, dim, G, limit_mib):
    # the G^m lattice array (8 and 16 MiB here) is never made; the kept spectrum is G^(m-1) |K| dim values
    P = full_width_poly(np.random.default_rng(width), width, 10, dim)
    r = RadiusVector([0.4, 0.5, 0.6, 0.3][:width])
    tracemalloc.start()
    try:
        poisson_convolve_numeric(P, r, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_constant_preserved():
    C = PowerPoly({EMPTY_INDEX: 2.0 + 1.0j})
    assert poisson_convolve_exact(C, RadiusVector([0.3])) == C


def test_semigroup_dyadic_exact():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: -0.25, 6: 1.5, 8: 2.0}))
    ra, rb = RadiusVector([0.5, 0.5]), RadiusVector([0.25, 0.5])
    once = poisson_convolve_exact(poisson_convolve_exact(P, ra), rb)
    both = poisson_convolve_exact(P, ra * rb)
    assert once == both  # bitwise: dyadic radii multiply exactly


def test_numeric_runs_on_the_used_coordinates():
    # 97 is the 25th prime: one used coordinate, far below the width's 25
    P = bohr_lift(DirichletPoly({1: 1.0, 97: 1.0}))
    r = RadiusVector([0.2 + 0.01 * j for j in range(25)])  # 0.44 at coordinate 24: a kernel tail of 0.44^63
    assert P.width == 25
    assert max_coeff_gap(poisson_convolve_numeric(P, r, 64), poisson_convolve_exact(P, r)) <= 1e-9


def moved(P: PowerPoly, at: dict) -> PowerPoly:
    """P with each position pos moved to at[pos]."""
    return PowerPoly({MultiIndex.from_pairs((at[pos], e) for pos, e in a.pairs): v for a, v in P.items()}, P.space)


def test_an_unused_coordinate_adds_no_quadrature_error(rng):
    # z_0 + z_2, the lift of 2^{-s} + 5^{-s}, reads the values of z_0 + z_1 with the radii of
    # its used coordinates, bit for bit: the kernel of coordinate 1 no longer enters at all
    wide = bohr_lift(DirichletPoly({2: 1.0, 5: 1.0}))
    packed = PowerPoly({MultiIndex.from_pairs([(0, 1)]): 1.0, MultiIndex.from_pairs([(1, 1)]): 1.0})
    got = poisson_convolve_numeric(wide, RadiusVector([0.6, 0.3, 0.6]), 8)
    assert got == moved(poisson_convolve_numeric(packed, RadiusVector([0.6, 0.6]), 8), {0: 0, 1: 2})
    # and on random C^2 polynomials on coordinates 1, 3 and 4 of width 5
    for _ in range(5):
        terms = {MultiIndex.from_pairs([(4, 1)])}
        for _ in range(4):
            positions = sorted(int(pos) for pos in rng.choice([1, 3, 4], 2, replace=False))
            terms.add(MultiIndex.from_pairs((pos, int(rng.integers(1, 3))) for pos in positions))
        P = PowerPoly({a: rng.normal(size=2) + 1j * rng.normal(size=2) for a in terms}, CoeffSpace(2))
        radii = rng.uniform(0.0, 0.9, size=5)
        packed = poisson_convolve_numeric(moved(P, {1: 0, 3: 1, 4: 2}), RadiusVector(radii[[1, 3, 4]]), 12)
        assert poisson_convolve_numeric(P, RadiusVector(radii), 12) == moved(packed, {0: 1, 1: 3, 2: 4})


def test_numeric_grid_validation():
    P = bohr_lift(DirichletPoly({8: 1.0}))  # degree 3 in one variable
    with pytest.raises(ValueError):
        poisson_convolve_numeric(P, RadiusVector([0.5]), 7)  # grid must exceed 2*deg+1
    wide = bohr_lift(DirichletPoly({2 * 3 * 5 * 7 * 11: 1.0}))
    with pytest.raises(DimensionCapError):
        poisson_convolve_numeric(wide, RadiusVector.uniform(0.5, 5), 8)


def test_coverage_validation():
    P = bohr_lift(DirichletPoly({6: 1.0}))  # width 2
    with pytest.raises(ValueError):
        poisson_convolve_exact(P, RadiusVector([0.5]))


def test_l2_contraction_exact():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: -0.25, 6: 1.5}))
    lhs, rhs = contraction_check(P, RadiusVector([0.7, 0.6]), 2.0)
    assert lhs.method == "exact_parseval"
    assert lhs.value <= rhs.value


def test_l4_contraction_mc():
    P = bohr_lift(DirichletPoly({1: 1.0 + 0.2j, 2: 0.5, 3: -0.25 + 0.4j, 6: 1.5, 8: -2.0j}))
    lhs, rhs = contraction_check(P, RadiusVector([0.6, 0.5]), 4.0, SamplerConfig(samples=10000, seed=0))
    assert lhs.value <= rhs.value
    assert lhs.method == "torus_mc"


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_contraction_check_estimates_both_sides_on_one_plan(monkeypatch, scheme):
    # the smoothed and the plain polynomial are two weight rows on one sample set and one monomial plan
    P = bohr_lift(DirichletPoly({1: 1.0 + 0.2j, 2: 0.5, 3: -0.25 + 0.4j, 6: 1.5, 8: -2.0j}))
    r = RadiusVector([0.6, 0.5])
    cfg = SamplerConfig(5000, 3, scheme)
    expected = (norm_hp_mc(poisson_convolve_exact(P, r), 4.0, cfg), norm_hp_mc(P, 4.0, cfg))
    plans = []
    build = series.monomial_map
    monkeypatch.setattr(series, "monomial_map", lambda poly: plans.append(poly) or build(poly))
    assert contraction_check(P, r, 4.0, cfg) == expected
    assert len(plans) == 1


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_contraction_at_radius_zero_reads_the_exact_constant(scheme):
    # at r = 0 the smoothed polynomial is its constant term: its row gets the exact norm
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: 0.25}))
    r = RadiusVector([0.0, 0.0])
    cfg = SamplerConfig(1000, 0, scheme)
    lhs, rhs = contraction_check(P, r, 4.0, cfg)
    assert lhs == norm_hp_mc(poisson_convolve_exact(P, r), 4.0, cfg)
    assert (lhs.value, lhs.method, lhs.samples) == (1.0, "exact_parseval", 0)
    assert rhs == norm_hp_mc(P, 4.0, cfg)


def test_contraction_check_rejects_p_infinity():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5}))
    with pytest.raises(ValueError):
        contraction_check(P, RadiusVector([0.5]), math.inf)


def test_smoothing_shrinks_high_degrees_most():
    P = bohr_lift(DirichletPoly({2: 1.0, 4: 1.0, 8: 1.0}))
    E = poisson_convolve_exact(P, RadiusVector([0.5]))
    degs = sorted((alpha.degree, abs(complex(E[alpha][0]))) for alpha in E.indices())
    mags = [m for _, m in degs]
    assert mags == sorted(mags, reverse=True)


@pytest.mark.parametrize("bad", [16.5, True, "16"])
def test_numeric_rejects_a_non_integer_grid(bad):
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5}))
    with pytest.raises(TypeError):
        poisson_convolve_numeric(P, RadiusVector([0.5]), bad)


def test_numeric_takes_a_numpy_integer_grid():
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 3: -0.25, 6: 1.5}))
    r = RadiusVector([0.5, 0.25])
    assert poisson_convolve_numeric(P, r, np.int64(16)) == poisson_convolve_numeric(P, r, 16)
