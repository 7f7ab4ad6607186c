"""Polynomial containers, the lift and its inverse, truncation and restriction."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlift import (
    EMPTY_INDEX,
    CoeffSpace,
    DirichletPoly,
    MultiIndex,
    PowerPoly,
    bohr_lift,
    bohr_transform,
    dirichlet_line_values,
    dumps,
    factorize,
    gallery,
    loads_dirichlet,
    max_coeff_gap,
    partial_sum,
    power_eval,
    power_values_at_angles,
    restrict,
    vertical_sup,
)
from bohrlift import series
from bohrlift.primes import sieve_limit
from bohrlift.spaces import vector_norm
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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DirichletPoly({1: [1.0, 2.0], 2: [1.0, 2.0, 3.0]}), "coefficient has 3 entries, space has dim 2"),
        (lambda: DirichletPoly({1: [1.0, 2.0], 2: 3.0}), "coefficient has 1 entries, space has dim 2"),
        (lambda: DirichletPoly({1: [1.0, 2.0]}, CoeffSpace(3)), "coefficient has 2 entries, space has dim 3"),
        (lambda: DirichletPoly({1: [[1.0]], 2: [[2.0]]}), "coefficient must be a scalar or 1-d sequence, got shape (1, 1)"),
        (lambda: DirichletPoly({1: [1.0, 2.0], 3: [[1.0, 2.0]]}), "coefficient must be a scalar or 1-d sequence, got shape (1, 2)"),
        (lambda: DirichletPoly({1: 1.0, 2: float("nan"), 3: [1.0]}), "coefficients must be finite"),
        (lambda: PowerPoly({(1,): [1.0, float("inf")], (2,): [0.0, 0.0]}), "coefficients must be finite"),
        # keys and values are read in order: the first bad one is named
        (lambda: DirichletPoly({0: 1.0, 2: [1.0, 2.0]}), "Dirichlet indices start at 1, got 0"),
        (lambda: DirichletPoly({2: [[1.0]], 0: 1.0}), "coefficient must be a scalar or 1-d sequence, got shape (1, 1)"),
        (lambda: DirichletPoly({1: float("inf"), 0: 1.0}), "Dirichlet indices start at 1, got 0"),
    ],
)
def test_bad_coefficients_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_mixed_scalar_and_vector_forms_still_construct():
    D = DirichletPoly({1: 1.0, 2: [2.0], 3: np.array([0.0])})
    assert D == DirichletPoly({1: 1.0, 2: 2.0})


@pytest.mark.parametrize(
    "make",
    [
        lambda: DirichletPoly({1: 1.0, 5: 0.0, 6: -2j, 9: np.float64(3.0)}),
        lambda: DirichletPoly({n: row for n, row in zip((2, 3, 7), np.arange(6.0).reshape(3, 2))}, CoeffSpace(2)),
        lambda: PowerPoly({(1,): [1.0, 2.0], (0, 1): np.array([3.0, 0.5j])}),
        lambda: loads_dirichlet(dumps(gallery("c0", 12))),
        lambda: loads_dirichlet(dumps(gallery("random_unimodular", 40, seed=5))),
    ],
)
def test_stored_coefficients_own_their_memory_and_are_read_only(make):
    # a view into the constructor's stacked array would keep all of it alive
    poly = make()
    assert len(poly) > 0
    for v in poly.coeffs.values():
        assert v.base is None and v.flags.owndata and not v.flags.writeable
        assert v.shape == (poly.space.dim,) and v.dtype == np.complex128


_COVERED = st.integers(1, 2**20)
_PAST_THE_TABLE = st.tuples(st.integers(1, 10**5), st.integers(25, 40)).map(lambda t: t[0] << t[1])  # > 2^24, the default cap


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sets(st.one_of(_COVERED, _PAST_THE_TABLE), max_size=30))
def test_lift_factors_every_index_as_factorize_does(ns):
    D = DirichletPoly({n: complex(k + 1, 1) for k, n in enumerate(ns)})
    P = bohr_lift(D)
    assert list(P.coeffs) == [factorize(n) for n in D.coeffs]  # key for key, in D's order
    assert all(P[factorize(n)] is v for n, v in D.items())  # coefficients moved, not copied


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


@pytest.mark.parametrize(
    "space", [CoeffSpace(1), CoeffSpace(3, "l1"), CoeffSpace(3, "l2"), CoeffSpace(3, "linf")]
)
def test_max_coeff_gap_is_the_per_key_loop(space):
    rng = np.random.default_rng(space.dim)

    def poly(cls, keys):
        return cls({k: rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim) for k in keys}, space)

    def per_key(A, B):
        zero = np.zeros(space.dim, dtype=np.complex128)
        keys = set(A.coeffs) | set(B.coeffs)
        return max((vector_norm(A.get(k, zero) - B.get(k, zero), space) for k in keys), default=0.0)

    A, B, C = (poly(DirichletPoly, keys) for keys in ([1, 2, 3, 5], [3, 5, 7, 11], [13, 17]))
    empty = DirichletPoly({}, space)
    P, Q = (poly(PowerPoly, [(), (1,), (0, 2)]), poly(PowerPoly, [(1,), (3,)]))
    cases = [(A, B), (A, C), (A, empty), (empty, B), (A, A), (P, Q), (P, PowerPoly({}, space))]
    for X, Y in cases:
        assert max_coeff_gap(X, Y) == per_key(X, Y)
    assert max_coeff_gap(A, C) > 0.0 and max_coeff_gap(A, A) == 0.0
    assert max_coeff_gap(empty, empty) == 0.0
    with pytest.raises(ValueError):  # the space is checked before any key
        max_coeff_gap(empty, DirichletPoly({}, CoeffSpace(space.dim + 1)))


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


def test_pack_moves_onto_the_used_coordinates_in_order(rng):
    for _ in range(50):
        terms = set()
        for _ in range(int(rng.integers(1, 10))):  # up to 3 of 60 positions per term, or none
            positions = sorted(int(pos) for pos in rng.choice(60, int(rng.integers(0, 4)), replace=False))
            terms.add(MultiIndex.from_pairs((pos, int(rng.integers(1, 4))) for pos in positions))
        P = PowerPoly({a: complex(rng.normal(), rng.normal()) for a in terms})
        active, Q = series.pack(P)
        assert active == sorted({pos for a in P.indices() for pos, _ in a.pairs})
        assert Q.width == len(active) and len(Q) == len(P)
        # the monotone map keeps indices() order, and moves the stored vectors as they are
        for a, b in zip(P.indices(), Q.indices()):
            assert b.pairs == tuple((active.index(pos), e) for pos, e in a.pairs)
            assert Q[b] is P[a]
        assert series.pack(Q) == (list(range(len(active))), Q) and series.pack(Q)[1] is Q


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
    rows = len({(), *(alpha.pairs for alpha in P.indices())})  # one per term, and the constant 1
    plan = series.monomial_map
    sizes = []

    def recording_plan(poly):
        chunk, work_entries, monomials = plan(poly)

        def recorded(points, work):
            sizes.append(points.shape[0])
            return monomials(points, work)

        return chunk, work_entries, recorded

    monkeypatch.setattr(series, "monomial_map", recording_plan)
    # a cap of k * rows entries gives chunks of exactly k points
    for cap in (entries, entries * rows, entries * rows - 1):
        monkeypatch.setattr(series, "_CHUNK_ENTRIES", cap)
        sizes.clear()
        chunked = power_values_at_angles(P, theta), dirichlet_line_values(D, t)
        chunk = max(1, cap // rows)
        assert plan(P)[0] == plan(D)[0] == chunk
        assert sizes == 2 * [min(chunk, 300 - lo) for lo in range(0, 300, chunk)]
        for ref, got in zip(reference, chunked):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_coordinate_major_angles_read_in_place_bit_for_bit():
    # on coordinates 0..k-1 the kernel reads column-contiguous angles as they are and picks
    # any other layout into that one, so that BLAS sums every phase in the same order
    rng = np.random.default_rng(0)
    terms = {MultiIndex.from_pairs([(j, 1)]): 1.0 for j in range(12)}
    for _ in range(20):  # bases over several coordinates, whose phases are real sums
        alpha = MultiIndex.from_pairs((int(j), int(rng.integers(1, 4))) for j in sorted(rng.choice(12, 5, replace=False)))
        terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    P = PowerPoly(terms)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(300, P.width + 2))
    picked = power_values_at_angles(P, theta)
    assert np.array_equal(power_values_at_angles(P, np.asfortranarray(theta)), picked)
    block = np.zeros((P.width + 2, 500))  # a wider coordinate-major block, as the Monte Carlo pass draws
    block[:, :300] = theta.T
    assert np.array_equal(power_values_at_angles(P, block[:, :300].T), picked)


def direct_values(poly, points):
    """Reference evaluation: one exp per point per term, then the coefficient matmul."""
    C = series.coeff_matrix(poly)
    if isinstance(poly, PowerPoly):
        A = np.zeros((poly.width, len(poly)))
        for i, alpha in enumerate(poly.indices()):
            for pos, e in alpha.pairs:
                A[pos, i] = e
        return np.exp(1j * (points[:, : poly.width] @ A)) @ C
    logs = np.log(np.array(poly.indices(), dtype=np.float64))
    return np.exp(-1j * np.outer(points, logs)) @ C


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("R, tol", [(1e3, 1e-13), (4.1e5, 1e-10)])
def test_multiplicative_kernel_on_dense_line(R, tol):
    # n^{-it} as a product of prime values; at large |t| the reference's own
    # phase t log n carries rounding of about 5e-10, so the tolerance widens
    D = gallery("zeta_shift", 4096)
    t = np.linspace(-R, R, 257)
    assert relative_gap(dirichlet_line_values(D, t), direct_values(D, t)) <= tol


def test_multiplicative_kernel_on_sparse_wide_lift(rng):
    # 669 coordinates (4999 is the 669th prime), of which only 6 are active
    D = DirichletPoly({1: 0.5, 6: 1.0, 2 * 2939: -1.0j, 3 * 3 * 1237: 2.0, 4999: 0.25, 2939 * 7: 1.5})
    P = bohr_lift(D)
    # no term's prefix is a term, so each term is a base value of its own
    assert P.width == 669 and series.monomial_map(P)[0] == series._CHUNK_ENTRIES // 6
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(500, P.width + 3))
    assert relative_gap(power_values_at_angles(P, theta), direct_values(P, theta)) <= 1e-13
    # on the line the reference's phases t log n reach 1e4, one ulp of which is 1.8e-12
    t = rng.uniform(-1e3, 1e3, size=500)
    assert relative_gap(dirichlet_line_values(D, t), direct_values(D, t)) <= 1e-11


@pytest.mark.parametrize("space", [CoeffSpace(1), CoeffSpace(3, "linf")])
def test_multiplicative_kernel_on_powers(rng, space):
    exponents = {tuple(int(e) for e in rng.integers(0, 4, size=5)) for _ in range(40)}
    P = PowerPoly(
        {MultiIndex(a): rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim) for a in exponents},
        space,
    )
    assert P.width == 5 and P.degree > 10
    theta = rng.uniform(-np.pi, 3.0 * np.pi, size=(2000, 5))
    got = power_values_at_angles(P, theta)
    assert got.shape == (2000, space.dim)
    assert relative_gap(got, direct_values(P, theta)) <= 1e-13


def test_multiplicative_kernel_on_high_degree(rng):
    # rows and work follow the number of factor powers, not the degree: a
    # chain down the degree would need a million rows here
    P = PowerPoly({MultiIndex([10**6]): 1.0, MultiIndex([3, 0, 10**5]): 2.0 - 1.0j, MultiIndex([0, 7, 999_983]): 0.5})
    assert P.degree == 10**6
    assert series.monomial_map(P)[0] == series._CHUNK_ENTRIES // 4
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(20_000, 3))
    # phases reach 6.3e6, one ulp of which is 9.3e-10, in the reference as here
    assert relative_gap(power_values_at_angles(P, theta), direct_values(P, theta)) <= 1e-8


def test_line_keeps_indices_with_huge_prime_factors(rng):
    # line values need a multiplicative chain, not prime positions: factors
    # beyond the trial primes stay whole, and the sieve does not grow for them
    before = sieve_limit()
    assert vertical_sup(DirichletPoly({1: 1.0, 2**61 - 1: 1.0}), 10.0, 101).value == 2.0
    D = DirichletPoly({1: 1.0, 6: 0.5, 3 * (2**61 - 1): -1.0j, 65537 * 65539: 2.0, 2**24 - 3: 0.25})
    t = rng.uniform(-100.0, 100.0, size=300)
    assert relative_gap(dirichlet_line_values(D, t), direct_values(D, t)) <= 1e-12
    assert sieve_limit() <= max(before, 2 * series._TRIAL_PRIMES)


def test_multiplicative_kernel_exact_at_zero(rng):
    # every monomial is exactly 1 at t = 0, so the value is the coefficient sum,
    # computed by the same matmul as on direct monomials
    D = gallery("zeta_shift", 1000)
    t = np.linspace(-5e4, 5e4, 101)
    assert np.array_equal(dirichlet_line_values(D, t)[50], direct_values(D, t)[50])
    assert dirichlet_line_values(D, t)[50, 0] == pytest.approx(math.fsum(v[0].real for _, v in D.items()), rel=1e-14)
    P = bohr_lift(random_dirichlet(rng, max_index=3000, max_terms=30, dim=2))
    theta = np.zeros((7, P.width))
    assert np.array_equal(power_values_at_angles(P, theta), direct_values(P, theta))


def term_major_monomials(poly, points):
    """The kernel with every term a row of its own: a term that is a base value is 1 times
    that value, and the (S, terms) matrix is a C-order copy of the transposed pick of rows."""
    power = isinstance(poly, PowerPoly)
    if power:
        support = [alpha.pairs for alpha in poly.indices()]
    else:
        primes = series.primes_up_to(min(math.isqrt(poly.max_index), series._TRIAL_PRIMES))
        support = [series.trial_factors(n, primes) for n in poly.indices()]
    members = set(support)
    chained = [alpha for alpha in support if len(alpha) > 1 and alpha[:-1] in members]
    uses = Counter(alpha[-1:] for alpha in chained) + Counter(alpha for alpha in support if len(alpha) == 1)
    split = {alpha: ((), alpha) for alpha in support if alpha}
    split.update({alpha: (alpha[:-1], alpha[-1:]) for alpha in chained if uses[alpha[-1:]] > 1})
    bases = sorted({base for _, base in split.values()})
    S = points.shape[0]
    phase, tmp = np.empty((2, len(bases), S))
    if power:
        A = np.zeros((len(bases), poly.width))
        for k, base in enumerate(bases):
            for pos, e in base:
                A[k, pos] = e
        np.matmul(A, points.T, out=phase)
    else:
        neg_logs = -np.array([math.log(math.prod(b**e for b, e in base)) for base in bases])
        np.multiply.outer(neg_logs, points, out=phase)
    values = np.empty((len(bases), S), dtype=np.complex128)
    series._unit(phase, tmp, values)
    rows = {(): np.ones(S, dtype=np.complex128)}
    for alpha in sorted(split, key=len):  # a parent is a shorter prefix
        parent, base = split[alpha]
        rows[alpha] = rows[parent] * values[bases.index(base)]
    picked = np.array([rows[alpha] for alpha in support])
    E = np.empty((S, len(support)), dtype=np.complex128)
    np.copyto(E, picked.T)
    return E


def chained_power_poly():
    """Terms on z_0, z_1, z_2 with chains three deep, helper bases z_1^2 and z_2, and a constant."""
    pairs = [(), ((0, 1),), ((0, 2),), ((0, 1), (1, 2)), ((0, 2), (1, 2)), ((0, 1), (1, 2), (2, 1))]
    pairs += [((0, 2), (1, 2), (2, 1)), ((1, 3),), ((1, 3), (2, 1)), ((0, 1), (2, 5)), ((0, 2), (2, 5))]
    return PowerPoly({MultiIndex.from_pairs(a): complex(1 + i, -i) for i, a in enumerate(pairs)}, CoeffSpace(1))


@pytest.mark.parametrize(
    "poly",
    [
        chained_power_poly(),
        bohr_lift(gallery("zeta_shift", 700)),
        gallery("zeta_shift", 700),
        DirichletPoly({n: 1.0 for n in (1, 4, 9, 12, 27, 36, 108, 65537 * 3, 65537 * 9, 2**40 * 3)}),
    ],
    ids=["chained power", "zeta lift", "zeta line", "huge factors line"],
)
def test_base_values_as_rows_give_the_term_major_monomials_bit_for_bit(rng, poly):
    # bases stand in the work matrix as they are, and every monomial has the bits of the
    # term-major formulation, at a full and at a short last chunk
    chunk, _, monomials = series.monomial_map(poly)
    constant = EMPTY_INDEX if isinstance(poly, PowerPoly) else 1
    assert chunk == series._CHUNK_ENTRIES // (len(poly) + (constant not in poly))
    if isinstance(poly, PowerPoly):
        points = np.asfortranarray(rng.uniform(0.0, 2.0 * np.pi, size=(chunk, poly.width)))
    else:
        points = rng.uniform(-1e4, 1e4, size=chunk)
    work = []
    for S in (chunk, chunk // 3 + 1):
        E = monomials(points[:S], work)
        assert E.flags.c_contiguous and E.shape == (S, len(poly))
        assert np.array_equal(E.view(np.uint64), term_major_monomials(poly, points[:S]).view(np.uint64))


def test_helper_bases_add_rows_but_keep_the_chunk():
    P = chained_power_poly()
    chunk, work_bytes, _ = series.monomial_map(P)
    assert chunk == series._CHUNK_ENTRIES // len(P)  # the constant is a term here
    # float phases and tan work for 6 bases, then complex M: the constant, 6 bases and 7 chained
    # terms; parents and factors for the widest level (5 terms), and E
    assert work_bytes == (8 * (6 + 6) + 16 * (14 + 5 + 5 + len(P))) * chunk


def vector_power_poly(rng, dim, chained):
    """C^dim coefficients on chained_power_poly's support, or on terms none of which is another's prefix."""
    if chained:
        support = [alpha.pairs for alpha in chained_power_poly().indices()]
    else:
        support = [((0, 1), (2, 3)), ((1, 2),), ((0, 2), (1, 1)), ((2, 1), (4, 2)), ((3, 5),), ((1, 1), (3, 1), (4, 1))]
    coeffs = rng.standard_normal((len(support), dim)) + 1j * rng.standard_normal((len(support), dim))
    return PowerPoly({MultiIndex.from_pairs(a): c for a, c in zip(support, coeffs)}, CoeffSpace(dim))


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("chained", [True, False], ids=["chained", "unchained"])
def test_vector_monomials_are_a_view_whose_products_keep_the_c_order_bits(rng, dim, chained):
    # with dim >= 2 the map hands back the F-order view of its row gather; numpy runs the
    # coefficient products as gemm, whose sums do not depend on the layout
    poly = vector_power_poly(rng, dim, chained)
    chunk, _, monomials = series.monomial_map(poly)
    points = np.asfortranarray(rng.uniform(0.0, 2.0 * np.pi, size=(chunk, poly.width)))
    C = series.coeff_matrix(poly)
    n = np.arange(1.0, len(poly) + 1)
    stack = np.ascontiguousarray(np.stack([np.ones_like(n), 1.0 / n, n % 2]))[:, :, None] * C
    work = []
    for S in (chunk, chunk // 3 + 1, 1):
        E = monomials(points[:S], work)
        assert E.flags.f_contiguous and E.shape == (S, len(poly))
        assert E.tobytes() == term_major_monomials(poly, points[:S]).tobytes()
        c_order = np.ascontiguousarray(E)
        for c in (C, *stack):
            assert (E @ c).tobytes() == (c_order @ c).tobytes()


def test_a_kept_workspace_serves_larger_and_smaller_plans(monkeypatch, rng):
    # one thread's workspace carries a plan's arrays into the next plan's call: buffers too
    # short are replaced, longer ones are cut to size, and no bits depend on what came before
    polys = [
        PowerPoly({MultiIndex.from_pairs(((0, 1),)): 1.0, MultiIndex.from_pairs(((1, 2),)): -2.0j}),
        vector_power_poly(rng, 3, True),
        chained_power_poly(),
    ]
    plans = [series.monomial_map(poly) for poly in polys]
    points = [np.asfortranarray(rng.uniform(0.0, 2.0 * np.pi, size=(chunk, poly.width))) for poly, (chunk, _, _) in zip(polys, plans)]
    alone = [monomials(x, []).tobytes() for (_, _, monomials), x in zip(plans, points)]
    for order in ([0, 1, 2, 1, 0], [2, 1, 0, 1, 2], [0, 2, 0, 2]):
        work = []
        for i in order:
            _, _, monomials = plans[i]
            assert monomials(points[i], work).tobytes() == alone[i]
    # and so do the free list's workspaces, passed from one evaluation to the next
    fresh = []
    for poly, x in zip(polys, points):
        monkeypatch.setattr(series, "_SPARES", [])
        fresh.append(series.evaluate(poly, x).tobytes())
    for i in (2, 0, 1, 2, 0):
        assert series.evaluate(polys[i], points[i]).tobytes() == fresh[i]


def grid_nodes(R, T):
    h = 2.0 * R / (T - 1)
    return (np.arange(T) - (T - 1) / 2) * h, h


def direct_grid_values(D, R, T):
    """The reference at the centred nodes, a few hundred points at a time."""
    t, _ = grid_nodes(R, T)
    return np.concatenate([direct_values(D, t[lo : lo + 256]) for lo in range(0, T, 256)])


@pytest.mark.parametrize("R, tol", [(1e3, 1e-13), (4.1e5, 1e-10)])
@pytest.mark.parametrize("T", [257, 2049])
def test_line_grid_on_dense_line(R, tol, T):
    # the tolerances of the multiplicative kernel: the phase t log n itself
    # rounds to about 5e-10 at large |t|; 4096 terms take several term blocks
    D = gallery("zeta_shift", 4096)
    _, h = grid_nodes(R, T)
    assert relative_gap(series._line_grid_values(D, h, T), direct_grid_values(D, R, T)) <= tol


@pytest.mark.parametrize("T", [2, 3, 4, 1000, 1001])
def test_line_grid_small_and_even_node_counts(T):
    # an even T has no node at t = 0; T = 2 holds just the end points -R and R.
    # Phases reach 137 here, one ulp of which is 2.8e-14
    D = DirichletPoly({1: 1.0, 2: -0.5j, 6: 0.25, 97: 2.0 + 1.0j})
    _, h = grid_nodes(30.0, T)
    got = series._line_grid_values(D, h, T)
    assert got.shape == (T, 1)
    assert relative_gap(got, direct_grid_values(D, 30.0, T)) <= 1e-13
    if T == 2:
        assert relative_gap(got, direct_values(D, np.array([-30.0, 30.0]))) <= 1e-13


def test_line_grid_on_vector_coefficients():
    # (C^300, linf): several q blocks of U * C at 300 x 300 entries each
    D = gallery("c0", 300)
    _, h = grid_nodes(1e3, 4001)
    got = series._line_grid_values(D, h, 4001)
    assert got.shape == (4001, 300)
    # phases reach 5.7e3 here, one ulp of which is 9.1e-13
    assert relative_gap(got, direct_grid_values(D, 1e3, 4001)) <= 1e-11


def grid_values_with_direct_tables(D, h, T):
    """_line_grid_values with every row of both tables from its own `_unit` call, in the same blocks."""
    c, S = (T - 1) // 2, math.isqrt(T - 1) + 1
    q_lo, q_hi = -c // S, (T - 1 - c) // S
    Q, dim = q_hi - q_lo + 1, D.space.dim
    out = np.zeros((T, dim), dtype=np.complex128)
    neg_logs = -np.log(np.array(D.indices(), dtype=np.float64))
    C = series.coeff_matrix(D)
    width = max(1, min(len(neg_logs), series._CHUNK_ENTRIES // (S + Q)))
    rows = max(1, min(Q, series._CHUNK_ENTRIES // (width * dim)))
    W = np.empty((S, width), dtype=np.complex128)
    U = np.empty((Q, width), dtype=np.complex128)
    for lo in range(0, len(neg_logs), width):
        logs = neg_logs[lo : lo + width]
        w = len(logs)
        for table, times in ((W[:, :w], (np.arange(S) - 0.5 * (1 - T % 2)) * h), (U[:, :w], np.arange(q_lo, q_hi + 1) * S * h)):
            phase = np.multiply.outer(times, logs)
            series._unit(phase, np.empty_like(phase), table)
        for qa in range(0, Q, rows):
            qb = min(Q, qa + rows)
            UC = U[qa:qb, :w].T[:, :, None] * C[lo : lo + w, None, :]
            V = (W[:, :w] @ UC.reshape(w, -1)).reshape(S, qb - qa, dim).swapaxes(0, 1).reshape(-1, dim)
            k = (q_lo + qa) * S + c
            out[max(k, 0) : k + len(V)] += V[max(-k, 0) : T - k]
    return out


@pytest.mark.parametrize("T", [2, 3, 4, 8, 101, 1000, 8193])
def test_line_grid_mirrored_table_is_the_direct_one_bit_for_bit(T):
    # U rows for q < 0 are conjugates of those for -q; T = 2 and 3 have no pair to mirror
    for D in (gallery("zeta_shift", 300), gallery("c0", 40)):
        for h in (0.01, 1.0, 50.0):
            assert series._line_grid_values(D, h, T).tobytes() == grid_values_with_direct_tables(D, h, T).tobytes()


@pytest.mark.parametrize("lo, hi", [(0.0, 60.0), (-1.5e7, 1.5e7)])
def test_unit_values_from_half_angle_tan(lo, hi):
    # torus base phases reach several times 2 pi; Kronecker phases reach 2^20 log n
    phase = np.random.default_rng(21).uniform(lo, hi, size=200_000)
    phase[:3] = 0.0, lo, hi
    out = np.empty(phase.shape, dtype=np.complex128)
    series._unit(phase.copy(), np.empty_like(phase), out)
    assert np.max(np.abs(out.real - np.cos(phase))) <= 4.5e-16
    assert np.max(np.abs(out.imag - np.sin(phase))) <= 4.5e-16
    assert np.max(np.abs(np.abs(out) - 1.0)) <= 4.5e-16
    assert out[0] == 1.0


def test_tan_is_odd_bit_for_bit():
    # a platform property, like the mirror above: negated phases give conjugate unit values
    x = np.concatenate([np.random.default_rng(22).uniform(0.0, 60.0, 100_000), np.random.default_rng(23).uniform(0.0, 7.5e6, 100_000)])
    assert np.tan(-x).tobytes() == (-np.tan(x)).tobytes()


def test_line_grid_keeps_indices_with_huge_prime_factors():
    D = DirichletPoly({1: 1.0, 2**61 - 1: 1.0, 3 * (2**61 - 1): -1.0j})
    _, h = grid_nodes(100.0, 1001)
    assert relative_gap(series._line_grid_values(D, h, 1001), direct_grid_values(D, 100.0, 1001)) <= 1e-12


def test_line_grid_centre_node_is_the_coefficient_sum():
    # both tables hold exactly 1 at t = 0, so the centre value sums the coefficients
    D = gallery("zeta_shift", 4096)
    T = 8193
    _, h = grid_nodes(409600.0, T)
    centre = series._line_grid_values(D, h, T)[(T - 1) // 2, 0]
    assert centre.imag == 0.0
    assert centre.real == pytest.approx(math.fsum(v[0].real for _, v in D.items()), rel=1e-14)


def test_line_grid_scan_memory():
    # the multiplicative kernel's work matrices peak at 5.4 MiB here; the two
    # tables, their float work arrays, one block of U * C and the output stay near 3 MiB
    D = gallery("zeta_shift", 4096)
    tracemalloc.start()
    try:
        vertical_sup(D, 409600.0, 8193)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


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
