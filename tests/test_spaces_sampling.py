"""Coefficient spaces, torus samplers and the deterministic reducers."""

import math

import numpy as np
import pytest

from bohrlift import (
    EMPTY_INDEX,
    IID_UNIFORM,
    KRONECKER_QMC,
    CoeffSpace,
    DirichletPoly,
    SamplerConfig,
    bohr_lift,
    pairwise_mean,
    pairwise_sum,
    torus_angles,
)
from bohrlift import sampling
from bohrlift.sampling import KRONECKER_SPAN, point_blocks
from bohrlift.spaces import as_coeff_array, max_row_norm, row_norms, vector_norm


def angle_rows(cfg, positions, lo, hi):
    """Rows [lo, hi) of the angles at the coordinates `positions`, shape (hi - lo, k): one block of `point_blocks`, transposed."""
    positions = list(positions)
    return next(point_blocks(cfg, positions, lo, hi, max(1, hi - lo)), np.empty((len(positions), 0))).T


def time_rows(cfg, lo, hi):
    """Rows [lo, hi) of the Kronecker scheme's flow times: one block of `point_blocks`."""
    return next(point_blocks(cfg, None, lo, hi, max(1, hi - lo)), np.empty(0))


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


def _random_rows(rng, S, dim):
    # entries of mixed magnitude, so a row sums terms of many sizes
    scale = np.exp(rng.uniform(-20.0, 20.0, (S, 1)))
    return (rng.standard_normal((S, dim)) + 1j * rng.standard_normal((S, dim))) * scale


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_scalar_row_norms_are_abs_bit_for_bit(norm):
    mags = np.logspace(-150, 150, 601)
    phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, mags.size)
    rows = (mags * np.exp(1j * phases)).reshape(-1, 1)
    a = np.abs(rows[:, 0])
    assert np.array_equal(row_norms(rows, CoeffSpace(1, norm)), a)
    assert np.array_equal(np.sqrt(a * a), a)  # and so does sqrt(|v|^2) in this range


def test_scalar_row_norm_past_the_square_overflow():
    rows = np.array([[1e200 + 0j], [-3e250j]])
    assert row_norms(rows, CoeffSpace(1, "l2")).tolist() == [1e200, 3e250]
    assert vector_norm(as_coeff_array(1e200), CoeffSpace(1)) == 1e200


@pytest.mark.parametrize("dim", [2, 3, 8, 256])
def test_row_norms_match_a_correctly_summed_reference(dim):
    rows = _random_rows(np.random.default_rng(dim), 300, dim)
    l2 = row_norms(rows, CoeffSpace(dim, "l2"))
    l1 = row_norms(rows, CoeffSpace(dim, "l1"))
    # a row of dim 256 sums 512 floats, so its rounding builds up past the
    # bound of rows of at most 16 floats
    tol = 4.5e-16 if dim <= 8 else 1e-15
    for row, a, b in zip(rows, l2, l1):
        ref2 = math.hypot(*row.view(np.float64))
        ref1 = math.fsum(abs(z) for z in row)
        assert abs(a - ref2) <= tol * ref2
        assert abs(b - ref1) <= tol * ref1


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 256])
def test_row_norms_ignore_offset_and_neighbours(norm, dim):
    # the Monte Carlo driver's bit-identity at any worker count rests on this
    space = CoeffSpace(dim, norm)
    rows = _random_rows(np.random.default_rng(11 * dim), 67, dim)
    want = row_norms(rows, space)
    for offset in range(0, 64, 8):
        buf = np.zeros(rows.nbytes + 64, dtype=np.uint8)
        placed = np.ndarray(rows.shape, dtype=np.complex128, buffer=buf, offset=offset)
        placed[...] = rows
        assert np.array_equal(row_norms(placed, space), want)
    for lo, hi in ((0, 1), (5, 6), (3, 40), (40, 67)):
        assert np.array_equal(row_norms(rows[lo:hi], space), want[lo:hi])


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [2, 3, 8, 256])
def test_row_norms_of_non_contiguous_inputs(norm, dim):
    space = CoeffSpace(dim, norm)
    big = _random_rows(np.random.default_rng(7 * dim), 50, 2 * dim + 1)
    views = [
        big[:, 1 : dim + 1],  # column slice
        big[:, ::2][:, :dim],  # strided columns
        np.ascontiguousarray(big[:, :dim].T).T,  # a transposed copy
        big[::-1, :dim],  # negative row stride
        big[:, dim - 1 :: -1],  # negative column stride
    ]
    for view in views:
        assert np.array_equal(row_norms(view, space), row_norms(np.ascontiguousarray(view), space))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_max_row_norm_is_the_largest_row_norm_bit_for_bit(norm, dim):
    # one square root of the largest square under l2: the same bits as the largest root
    space = CoeffSpace(dim, norm)
    rng = np.random.default_rng(5 * dim)
    for scale in (1e-200, 1e-160, 1e-3, 1.0, 1e150, 1e160, 1e300):  # squares that underflow and overflow too
        with np.errstate(over="ignore", invalid="ignore"):
            cases = [_random_rows(rng, 1000, dim) * scale, _random_rows(rng, 3, dim) * rng.uniform(0, scale, (3, 1))]
            for rows in cases + [rows[:, ::-1] for rows in cases]:
                got = max_row_norm(rows, space)
                assert type(got) is float
                assert got.hex() == float(row_norms(rows, space).max()).hex()
    rows = _random_rows(rng, 10, dim)
    rows[4, 0] = complex(math.nan, 0.0)
    assert math.isnan(max_row_norm(rows, space)) and math.isnan(row_norms(rows, space).max())


def test_coeff_arrays_immutable():
    v = as_coeff_array(1.0 + 2.0j)
    with pytest.raises((ValueError, RuntimeError)):
        v[0] = 0.0


def test_coeff_arrays_share_no_caller_memory():
    # a view into the caller's matrix is copied, so writing the matrix leaves D alone
    M = np.arange(2000, dtype=np.complex128).reshape(1000, 2)
    D = DirichletPoly({1: M[3]}, CoeffSpace(2))
    M[3, 0] = 7
    assert D[1].tolist() == [6, 7] and not np.shares_memory(D[1], M)
    # an owned writable array is copied, so the caller's array stays writable
    a = np.array([1.0, 2.0], dtype=np.complex128)
    D = DirichletPoly({1: a}, CoeffSpace(2))
    a[0] = 5
    assert D[1].tolist() == [1, 2]
    # an owned read-only array is copied too: its owner can make it writable again
    a = np.array([1.0, 2.0], dtype=np.complex128)
    a.setflags(write=False)
    D = DirichletPoly({1: a}, CoeffSpace(2))
    a.setflags(write=True)
    a[0] = 5
    assert D[1].tolist() == [1, 2] and not np.shares_memory(D[1], a)
    # stored coefficients move through the lift as they are
    assert bohr_lift(D)[EMPTY_INDEX] is D[1]


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


def test_sampler_config_seeds_are_one_32_bit_word():
    # SeedSequence pads entropy words with zeros, so coordinate 3 of seed 5 would read the
    # stream of coordinate 0 of seed 5 + 3 * 2**32
    assert SamplerConfig(100, 2**32 - 1).seed == 2**32 - 1
    for seed in (2**32, 5 + 3 * 2**32):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(1000, seed)


def test_torus_angles_shapes_and_determinism():
    cfg = SamplerConfig(50, 3)
    a = torus_angles(cfg, 4)
    b = torus_angles(cfg, 4)
    assert a.shape == (50, 4)
    assert np.array_equal(a, b)  # same seed, same angles
    assert np.all((a >= 0) & (a < 2 * np.pi))
    c = torus_angles(cfg.with_seed(4), 4)
    assert not np.array_equal(a, c)


def coordinate_draw(seed, positions, samples):
    """Reference iid angles, one column at a time: column j is default_rng([seed, j]).uniform(0, 2 pi, samples)."""
    return np.stack([np.random.default_rng([seed, j]).uniform(0.0, 2.0 * math.pi, samples) for j in positions], axis=1)


@pytest.mark.parametrize("m", [1, 5, 300])
def test_iid_angles_keep_the_uniform_stream(m):
    # every coordinate keeps its own uniform stream, bit for bit, whichever columns are kept
    cfg = SamplerConfig(1000, 8)
    full = coordinate_draw(8, range(m), 1000)
    assert np.array_equal(torus_angles(cfg, m), full)
    for positions in ([m - 1], sorted({0, m // 2, m - 1})):
        assert np.array_equal(angle_rows(cfg, positions, 0, cfg.samples), full[:, positions])


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


@pytest.mark.parametrize("m", [1, 5, 300])
def test_iid_row_ranges_are_rows_of_the_full_draw(m):
    # numpy's random() takes one 64-bit output per double, so PCG64.advance(lo) starts
    # row lo of every coordinate's stream; the last range straddles row 65_536 // m
    cfg = SamplerConfig(1000, 8)
    full = coordinate_draw(8, range(m), 1000)
    block = {1: 65_536, 5: 13_107, 300: 218}[m]
    ranges = [(0, 1000), (0, 1), (1, 2), (217, 999), (999, 1000), (block - 1, block + 1)]
    for positions in (list(range(m)), [m - 1], sorted({0, m // 2, m - 1})):
        for lo, hi in ranges:
            lo, hi = min(lo, 999), min(hi, 1000)
            assert np.array_equal(angle_rows(cfg, positions, lo, hi), full[lo:hi, positions])


@pytest.mark.parametrize(
    "positions",
    [
        [0, 20_000],  # one long run inside a row
        [20_000],  # one long leading run
        [3, 10, 4_106, 4_107, 9_000, 13_097, 13_200],  # runs of 4,095, more, exactly 4,096, and short ones
        [4_096, 8_193, 8_197],  # runs of exactly 4,096
    ],
)
def test_iid_rows_skip_long_unused_runs_bit_for_bit(positions):
    # unused coordinates are never drawn: a far coordinate reads its own stream
    cfg = SamplerConfig(40, 8)
    full = coordinate_draw(8, positions, 40)
    for lo, hi in ((0, 40), (0, 1), (1, 2), (17, 39), (39, 40)):
        assert np.array_equal(angle_rows(cfg, positions, lo, hi), full[lo:hi])


def test_iid_angles_of_a_coordinate_do_not_depend_on_the_others():
    cfg = SamplerConfig(1000, 8)
    for lo, hi in ((0, 1000), (0, 1), (1, 2), (37, 999), (63, 65), (999, 1000)):
        alone = angle_rows(cfg, [3], lo, hi)[:, 0]
        assert np.array_equal(angle_rows(cfg, [0, 3, 900], lo, hi)[:, 1], alone)
        # blocks of 64 rows from streams started once at row lo
        blocks = [block[1].copy() for block in point_blocks(cfg, [0, 3, 900], lo, hi, 64)]
        assert [len(b) for b in blocks] == [min(64, hi - a) for a in range(lo, hi, 64)]
        assert np.array_equal(np.concatenate(blocks), alone)


def test_kronecker_row_ranges_are_rows_of_the_full_draw():
    cfg = SamplerConfig(1000, 11, KRONECKER_QMC)
    t = np.random.default_rng(11).uniform(0.0, KRONECKER_SPAN, 1000)
    positions = [0, 3, 7]
    full = angle_rows(cfg, positions, 0, cfg.samples)
    assert np.array_equal(time_rows(cfg, 0, 1000), t)
    for lo, hi in ((0, 1), (333, 777), (999, 1000)):
        assert np.array_equal(time_rows(cfg, lo, hi), t[lo:hi])
        assert np.array_equal(angle_rows(cfg, positions, lo, hi), full[lo:hi])


def test_kronecker_blocks_are_rows_of_the_full_draw():
    # times and prime angles alike, in 64-row blocks from one stream started at row lo
    cfg = SamplerConfig(1000, 11, KRONECKER_QMC)
    positions = [0, 3, 7]
    for lo, hi in ((0, 1000), (0, 1), (1, 2), (37, 999), (63, 65), (999, 1000)):
        times = [block.copy() for block in point_blocks(cfg, None, lo, hi, 64)]
        assert [len(b) for b in times] == [min(64, hi - a) for a in range(lo, hi, 64)]
        assert np.array_equal(np.concatenate(times), time_rows(cfg, lo, hi))
        angles = [block.copy() for block in point_blocks(cfg, positions, lo, hi, 64)]
        assert np.array_equal(np.concatenate(angles, axis=1).T, angle_rows(cfg, positions, lo, hi))


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


def recursive_pairwise_sum(x):
    """Reference definition: midpoint splits, leaves of at most 64 terms added left to right."""

    def rec(lo, hi):
        if hi - lo <= 64:
            total = 0.0
            for v in x[lo:hi]:
                total += float(v)
            return total
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid, hi)

    return rec(0, len(x)) if len(x) else 0.0


def test_pairwise_sum_matches_recursive_definition_bit_for_bit():
    rng = np.random.default_rng(5)
    lengths = list(range(0, 200)) + [255, 256, 257, 4095, 4096, 4097, 64 * 65, 20_000, 65_537, 200_000]
    lengths += [int(n) for n in rng.integers(200, 200_001, size=20)]
    for n in lengths:
        # magnitudes over 16 decades make every rounding of the order visible
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert pairwise_sum(x) == recursive_pairwise_sum(x), n
    assert math.copysign(1.0, pairwise_sum(np.full(130, -0.0))) == 1.0


def test_pairwise_sum_tree_kept_per_length_gives_the_same_bits():
    # each length keeps its own tree: interleaved lengths, and a length met again, sum as defined
    rng = np.random.default_rng(9)
    for n in (20_000, 7, 200_000, 20_000):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        before = x.copy()
        assert pairwise_sum(x) == recursive_pairwise_sum(x), n
        assert np.array_equal(x, before)  # the input is only read
    assert sampling._tree.cache_info().maxsize is not None
