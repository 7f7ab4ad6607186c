"""Summation by parts and truncation-growth experiments."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bohrlift import (
    CoeffSpace,
    DirichletPoly,
    SamplerConfig,
    abel_identity_check,
    gallery,
    log_bound_experiment,
    norm_hp_mc,
    partial_sum,
    partial_sum_projection_check,
    vertical_sup,
)
from bohrlift import norms, series
from conftest import random_dirichlet


def test_abel_identity_simple():
    D = DirichletPoly({n: 1.0 for n in range(1, 30)})
    lhs, rhs, gap = abel_identity_check(D, 5, 25, 0.7)
    assert gap < 1e-12
    # lhs really is the damped block
    assert lhs[10] == pytest.approx(10.0 ** (-0.7))
    assert 3 not in lhs


def test_abel_identity_random(rng):
    for _ in range(100):
        D = random_dirichlet(rng, max_index=200, max_terms=20)
        if D.max_index < 4:
            continue
        M = int(D.max_index)
        N = int(rng.integers(2, M))
        eps = float(rng.uniform(0.05, 2.0))
        _, _, gap = abel_identity_check(D, N, M, eps)
        assert gap < 1e-12


def test_abel_identity_vector(rng):
    D = DirichletPoly({n: rng.standard_normal(3) + 1j * rng.standard_normal(3) for n in range(1, 80)})
    _, _, gap = abel_identity_check(D, 10, 75, 0.8)
    assert gap < 1e-12


def test_abel_block_missing_support():
    # the block can miss the support entirely; both sides are then ~0
    D = DirichletPoly({1: 1.0, 2: 1.0, 41: 1.0})
    lhs, rhs, gap = abel_identity_check(D, 30, 38, 0.5)
    assert len(lhs) == 0
    assert gap < 1e-12


def test_abel_validation():
    D = DirichletPoly({n: 1.0 for n in range(1, 30)})
    with pytest.raises(ValueError):
        abel_identity_check(D, 1, 10, 0.5)  # need N > 1
    with pytest.raises(ValueError):
        abel_identity_check(D, 10, 10, 0.5)  # need M > N
    with pytest.raises(ValueError):
        abel_identity_check(D, 5, 40, 0.5)  # M past the support
    with pytest.raises(ValueError):
        abel_identity_check(D, 5, 25, 0.0)  # eps must be positive


@pytest.mark.parametrize("N, M", [(5.0, 25), (5, 25.5), (True, 25), ("5", 25)])
def test_abel_refuses_non_integer_block_ends(N, M):
    D = DirichletPoly({n: 1.0 for n in range(1, 30)})
    with pytest.raises(TypeError, match="must be an integer"):
        abel_identity_check(D, N, M, 0.5)


def test_abel_accepts_numpy_integers():
    D = DirichletPoly({n: 1.0 for n in range(1, 30)})
    assert abel_identity_check(D, np.int64(5), np.int64(25), 0.7) == abel_identity_check(D, 5, 25, 0.7)


def test_abel_identity_on_blocks_of_thousands(rng):
    D = gallery("random_unimodular", 4096, seed=3)
    assert abel_identity_check(D, 20, 4096, 0.3)[2] < 1e-12
    V = DirichletPoly({n: rng.standard_normal(3) + 1j * rng.standard_normal(3) for n in range(1, 3001)})
    assert abel_identity_check(V, 7, 2999, 1.3)[2] < 1e-12


def _literal_rhs(D, N, M, eps):
    """sum_n w_n S_n D over n = N-1, ..., M, added partial sum by partial sum."""
    weights = {N - 1: -float(N) ** -eps, M: float(M) ** -eps}
    weights.update({n: float(n) ** -eps - float(n + 1) ** -eps for n in range(N, M)})
    acc = {}
    for n, w in weights.items():
        for k, v in partial_sum(D, n).items():
            acc[k] = acc.get(k, 0) + v * w
    return acc


def test_abel_rhs_is_the_literal_partial_sum_combination(rng):
    D = DirichletPoly({n: 1.0 for n in (7, 8, 11, 12, 20, 25, 31, 40)})
    _, rhs, _ = abel_identity_check(D, 7, 31, 0.6)
    assert set(rhs.indices()) == {7, 8, 11, 12, 20, 25, 31}
    for _ in range(50):
        D = random_dirichlet(rng, max_index=300, max_terms=40, dim=2)
        if D.max_index < 4:
            continue
        M = int(D.max_index) - int(rng.integers(0, 2))
        N = int(rng.integers(2, M))
        eps = float(rng.uniform(0.05, 2.0))
        _, rhs, _ = abel_identity_check(D, N, M, eps)
        literal = _literal_rhs(D, N, M, eps)
        # below N the weights telescope to zero, so such a term may cancel out exactly
        assert {k for k in literal if k >= N} <= set(rhs.indices()) <= set(literal)
        scale = max(np.linalg.norm(v) for v in D.coeffs.values())
        assert all(np.linalg.norm(rhs.get(k, 0) - v) <= 1e-14 * scale for k, v in literal.items())


def test_projection_check(rng):
    for _ in range(20):
        D = random_dirichlet(rng, max_index=500, max_terms=25, dim=2)
        N = int(rng.integers(1, 600))
        assert partial_sum_projection_check(D, N)


def test_log_bound_exact_rows():
    rows = log_bound_experiment(lambda s: gallery("zeta_shift", s), 2.0, [4, 16, 64])
    assert [r.N for r in rows] == [4, 16, 64]
    assert all(r.method == "exact_parseval" for r in rows)
    assert all(r.std_error == 0.0 for r in rows)
    # truncation ratios grow toward 1 and hit it at the full length
    ratios = [r.ratio for r in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0)
    # hand-check the first ratio against Parseval sums
    D = gallery("zeta_shift", 64)
    num = math.sqrt(math.fsum(float(n) ** (-2 * 0.51) for n in range(1, 5)))
    den = math.sqrt(math.fsum(float(n) ** (-2 * 0.51) for n in range(1, 65)))
    assert ratios[0] == pytest.approx(num / den, rel=1e-12)


def test_log_bound_sup_rows():
    rows = log_bound_experiment(
        lambda s: gallery("zeta_shift", s), math.inf, [4, 8, 16], t_samples=257
    )
    assert all(r.method == "vertical_sup" for r in rows)
    assert all(r.ratio <= 1.0 + 1e-12 for r in rows)
    assert all(r.ratio_over_log == pytest.approx(r.ratio / math.log(r.N)) for r in rows)


def test_log_bound_mc_rows():
    rows = log_bound_experiment(
        lambda s: gallery("zeta_shift", s), 4.0, [4, 16], SamplerConfig(samples=4000, seed=5)
    )
    assert all(r.method == "torus_mc" for r in rows)
    assert all(r.std_error > 0.0 for r in rows)


# sorted n puts 3 before 4 and 5, the multi-index order puts 5 = (0, 0, 1) first
MIXED_ORDER = DirichletPoly(
    {
        1: [1.0, 0.5], 2: [0.3j, 1.0], 3: [-0.7, 0.2], 4: [0.5, 0.5j],
        5: [1.0, 1.0], 6: [0.2, -1.0], 9: [1j, 0.0], 12: [0.6, 0.6],
    },
    CoeffSpace(2),
)


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
@pytest.mark.parametrize("D, Ns", [(gallery("zeta_shift", 16), [4, 16]), (DirichletPoly({1: 2.0, 8: 1.0}), [4, 16])])
def test_log_bound_full_length_mc_row_reads_one(scheme, D, Ns):
    # the truncation that keeps every term is the denominator's weight row on the same samples
    rows = log_bound_experiment(lambda s: D, 4.0, Ns, SamplerConfig(2000, 5, scheme))
    assert rows[-1].method == "torus_mc"
    assert rows[-1].ratio == 1.0


def test_log_bound_rows_are_the_truncations_on_one_sample_set(monkeypatch):
    cfg = SamplerConfig(3000, 4, "kronecker")
    Ns = [3, 5, 9, 12]
    denom = norm_hp_mc(MIXED_ORDER, 4.0, cfg).value
    expected = [norm_hp_mc(partial_sum(MIXED_ORDER, N), 4.0, cfg).value / denom for N in Ns]
    plans = []
    build = series.monomial_map
    monkeypatch.setattr(series, "monomial_map", lambda poly: plans.append(poly) or build(poly))
    rows = log_bound_experiment(lambda s: MIXED_ORDER, 4.0, Ns, cfg)
    assert len(plans) == 1
    for row, ratio in zip(rows, expected):
        assert row.ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_log_bound_constant_truncation_is_exact(scheme):
    cfg = SamplerConfig(1000, 0, scheme)
    D = DirichletPoly({1: 2.0, 8: 1.0})
    first, _ = log_bound_experiment(lambda s: D, 4.0, [4, 16], cfg)
    assert first.method == "exact_parseval"
    assert first.ratio == 2.0 / norm_hp_mc(D, 4.0, cfg).value


def test_log_bound_non_euclidean_p2_rows_are_monte_carlo():
    rows = log_bound_experiment(
        lambda s: gallery("c0", s), 2.0, [4, 8], SamplerConfig(samples=500, seed=1)
    )
    assert [r.method for r in rows] == ["torus_mc", "torus_mc"]


def test_log_bound_validation():
    with pytest.raises(ValueError):
        log_bound_experiment(lambda s: gallery("zeta_shift", s), 2.0, [])
    with pytest.raises(ValueError):
        log_bound_experiment(lambda s: gallery("zeta_shift", s), 2.0, [4, 3])


# -- the p = inf sweep on one coefficient matrix ------------------------------

SWEEP_NS = [2**k for k in range(2, 13)]  # the README's `log-bound --N 4096` and acceptance criterion 7


def separate_scans(D, Ns, T, r):
    """The sweep's ratios from a vertical_sup call on each truncation polynomial."""
    denom = vertical_sup(D, r * max(D.max_index, 2), T).value
    return [vertical_sup(partial_sum(D, N), r * N, T).value / denom for N in Ns]


def count_scans(monkeypatch) -> list:
    """The term count of every line grid scan from here on."""
    scans = []
    scan = series._line_grid_scan
    monkeypatch.setattr(series, "_line_grid_scan", lambda logs, C, h, T: scans.append(len(C)) or scan(logs, C, h, T))
    return scans


@pytest.mark.parametrize(
    "family, Ns, T, r",
    [
        (lambda s: gallery("zeta_shift", s), SWEEP_NS, 8193, 100.0),
        (lambda s: gallery("zeta_shift", 3000), SWEEP_NS, 1025, 100.0),
        (lambda s: gallery("c0", s), [4, 9, 30, 40], 1001, 30.0),
        (lambda s: gallery("random_unimodular", s, seed=3), [3, 7, 50, 300, 301], 2000, 7.5),
    ],
    ids=["README", "max index below max(Ns)", "C^40 linf", "even T"],
)
def test_sup_sweep_rows_are_the_separate_scans_bit_for_bit(monkeypatch, family, Ns, T, r):
    expected = [ratio.hex() for ratio in separate_scans(family(max(Ns)), Ns, T, r)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often: a lost scan result would show
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(norms, "_worker_count", lambda: workers)
            rows = log_bound_experiment(family, math.inf, Ns, t_samples=T, r_per_n=r)
            assert [row.ratio.hex() for row in rows] == expected
            assert all(row.method == "vertical_sup" and row.std_error == 0.0 for row in rows)
    finally:
        sys.setswitchinterval(interval)


def test_sup_sweep_reuses_the_denominator_scan_for_the_full_truncation(monkeypatch):
    # the size-4096 member has max index 4096, so S_4096 D is D at the denominator's R
    scans = count_scans(monkeypatch)
    rows = log_bound_experiment(lambda s: gallery("zeta_shift", s), math.inf, SWEEP_NS, t_samples=8193)
    assert sorted(scans) == SWEEP_NS
    assert rows[-1].ratio == 1.0


def test_sup_sweep_merges_nothing_when_the_max_index_is_below_the_largest_N(monkeypatch):
    # at N = 4096 every one of the 3,000 terms is kept, but at R = 409,600, not the denominator's 300,000
    scans = count_scans(monkeypatch)
    log_bound_experiment(lambda s: gallery("zeta_shift", 3000), math.inf, SWEEP_NS, t_samples=257)
    assert sorted(scans) == SWEEP_NS[:-1] + [3000, 3000]


def test_sup_sweep_keeps_scans_of_the_same_terms_at_different_R(monkeypatch):
    D = DirichletPoly({1: 1.0, 2: -0.5j, 3: 0.25})
    scans = count_scans(monkeypatch)
    rows = log_bound_experiment(lambda s: D, math.inf, [3, 4, 5], t_samples=257)
    assert scans == [3, 3, 3]
    assert [row.ratio for row in rows] == separate_scans(D, [3, 4, 5], 257, 100.0)
    assert rows[0].ratio == 1.0


def test_sup_sweep_empty_truncation_reads_zero():
    D = DirichletPoly({3: 1.0, 5: 1.0})
    rows = log_bound_experiment(lambda s: D, math.inf, [2, 4, 5], t_samples=257)
    assert (rows[0].ratio, rows[0].ratio_over_log, rows[0].std_error) == (0.0, 0.0, 0.0)
    assert [row.ratio for row in rows] == separate_scans(D, [2, 4, 5], 257, 100.0)


@pytest.mark.parametrize(
    "D, t_samples, r_per_n",
    [
        (gallery("zeta_shift", 16), 1, 100.0),
        (gallery("zeta_shift", 16), 256.5, 100.0),
        (gallery("zeta_shift", 16), 257, 0.0),
        (gallery("zeta_shift", 16), 257, -3.0),
        (gallery("zeta_shift", 16), 257, math.nan),
        (gallery("zeta_shift", 16), 257, math.inf),
        # the denominator's R = 7.5e307 has a finite spacing, N = 4096's R = 1.024e308 does not
        (gallery("zeta_shift", 3000), 257, 2.5e304),
    ],
)
def test_sup_sweep_refuses_what_the_separate_scans_refuse_before_any_scan(monkeypatch, D, t_samples, r_per_n):
    Ns = [4, 16] if D.max_index == 16 else [4, 4096]
    with pytest.raises((TypeError, ValueError)) as separate, np.errstate(over="ignore", invalid="ignore"):
        separate_scans(D, Ns, t_samples, r_per_n)  # a denominator scan at R = 7.5e307 overflows its phases
    scans = count_scans(monkeypatch)
    with pytest.raises(separate.type) as swept:
        log_bound_experiment(lambda s: D, math.inf, Ns, t_samples=t_samples, r_per_n=r_per_n)
    assert str(swept.value) == str(separate.value)
    assert scans == []


@pytest.mark.parametrize("workers, shares", [(1, 1), (2, 2), (4, 4), (7, 7), (16, 9)])
def test_sup_sweep_shares_on_the_readme_shape(monkeypatch, workers, shares):
    # the README `log-bound --N 4096` command and the benchmark sweep: zeta_shift 4096 at T = 8193, 11 scans;
    # up to 7 CPUs one share each, as before series counted the scan's bytes; past that the byte budget holds 9 scans
    monkeypatch.setattr(norms, "_worker_count", lambda: workers)
    counts = []
    run = norms._run_shares
    monkeypatch.setattr(norms, "_run_shares", lambda work, parts: counts.append(len(parts)) or run(work, parts))
    log_bound_experiment(lambda s: gallery("zeta_shift", s), math.inf, SWEEP_NS, t_samples=8193)
    assert counts == [shares]
    assert norms._WORK_BUDGET // (series._line_grid_bytes(4096, 1, 8193) + 8 * 8193) == 9


@pytest.mark.parametrize(
    "D, T",
    [(gallery("zeta_shift", 4096), 8193), (gallery("zeta_shift", 3000), 1025), (gallery("c0", 300), 4001), (gallery("random_unimodular", 301, seed=3), 2000)],
    ids=["README", "short grid", "C^300 linf", "even T"],
)
def test_line_grid_bytes_count_what_a_scan_holds(D, T):
    # with vector coefficients a block of U * C is width x dim per q, not bounded by the tables
    C, logs = series.coeff_matrix(D), np.log(np.array(D.indices(), dtype=np.float64))
    series._line_grid_scan(logs, C, 0.01, T)
    tracemalloc.start()
    try:
        series._line_grid_scan(logs, C, 0.01, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's ufunc buffers (8,192 entries per strided operand) are the part not counted; the upper
    # bound guards the worker budget, the loose lower one that the count still measures this scan
    assert 0.5 <= peak / series._line_grid_bytes(len(D), D.space.dim, T) <= 1.15


def test_a_failing_sweep_scan_on_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(norms, "_worker_count", lambda: 3)
    scan = series._line_grid_scan

    def failing_in_workers(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)  # late, so that only a join can see it
            raise RuntimeError("scan failed")
        return scan(*args)

    monkeypatch.setattr(series, "_line_grid_scan", failing_in_workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="scan failed"):
        log_bound_experiment(lambda s: gallery("zeta_shift", s), math.inf, [4, 16, 64], t_samples=257)
    assert threading.active_count() == before
