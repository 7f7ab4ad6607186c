"""Hardy-norm estimators against closed forms and each other."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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
    c0_style_family,
    contraction_check,
    eps_norm_profile,
    gallery,
    hilbert_criterion,
    hplus_norm,
    log_bound_experiment,
    norm_h2_exact,
    norm_hinf_grid,
    norm_hp_mc,
    norm_p_limit_check,
    power_values_at_angles,
    primes_up_to,
    torus_angles,
    vertical_mean,
    vertical_sup,
)
from bohrlift import norms, series
from bohrlift.errors import DimensionCapError, NoClosedFormError
from bohrlift.norms import lattice_value_chunks, mc_estimate
from bohrlift.primes import sieve_limit
from bohrlift.sampling import point_blocks
from bohrlift.series import evaluate
from bohrlift.spaces import row_norms, vector_norm
from conftest import ON_2_AND_7, random_dirichlet

TWO_TERM = DirichletPoly({1: 1.0, 2: 1.0})


def test_h2_exact_values():
    assert norm_h2_exact(TWO_TERM).value == math.sqrt(2.0)
    assert norm_h2_exact(DirichletPoly({1: 3.0, 4: 4.0})).value == 5.0
    D = DirichletPoly({2: [1.0, 0.0], 3: [0.0, 2.0]})
    assert norm_h2_exact(D).value == math.sqrt(5.0)
    assert norm_h2_exact(DirichletPoly({})).value == 0.0


def test_h2_exact_metadata():
    est = norm_h2_exact(TWO_TERM)
    assert est.method == "exact_parseval"
    assert est.std_error == 0.0
    d = est.to_dict()
    assert set(d) == {"value", "method", "std_error", "samples", "seed"}


def test_h2_exact_refuses_non_euclidean():
    D = DirichletPoly({1: [1.0, 1.0]}, CoeffSpace(2, "linf"))
    with pytest.raises(NoClosedFormError):
        norm_h2_exact(D)


def test_h4_of_two_term_poly():
    # int |1 + w|^4 over the circle = 6, so the H_4 norm is 6^(1/4)
    est = norm_hp_mc(TWO_TERM, 4.0, SamplerConfig(samples=200000, seed=1))
    assert est.value == pytest.approx(6.0**0.25, abs=4 * est.std_error)
    assert est.std_error < 0.005


def test_mc_matches_parseval(rng):
    D = random_dirichlet(rng, max_index=200, max_terms=15, dim=2)
    exact = norm_h2_exact(D).value
    est = norm_hp_mc(D, 2.0, SamplerConfig(samples=40000, seed=5))
    assert abs(est.value - exact) <= 3.5 * est.std_error


def test_mc_schemes_agree():
    cfg_i = SamplerConfig(samples=100000, seed=2)
    cfg_k = SamplerConfig(samples=100000, seed=2, scheme="kronecker")
    a = norm_hp_mc(TWO_TERM, 4.0, cfg_i)
    b = norm_hp_mc(TWO_TERM, 4.0, cfg_k)
    assert abs(a.value - b.value) <= 4 * math.hypot(a.std_error, b.std_error)


def test_mc_reproducible():
    cfg = SamplerConfig(samples=5000, seed=42)
    a = norm_hp_mc(TWO_TERM, 3.0, cfg)
    b = norm_hp_mc(TWO_TERM, 3.0, cfg)
    assert a.value == b.value and a.std_error == b.std_error


def test_mc_homogeneity():
    cfg = SamplerConfig(samples=3000, seed=8)
    a = norm_hp_mc(TWO_TERM, 4.0, cfg)
    b = norm_hp_mc(2.5 * TWO_TERM, 4.0, cfg)
    assert b.value == pytest.approx(2.5 * a.value, rel=1e-12)


@pytest.mark.parametrize("p", [64.0, 200.0, 400.0])
@pytest.mark.parametrize("c", [1e-3, 10.0])
def test_power_means_scale_without_overflow_or_underflow(c, p):
    # (1e-3)^200 underflows and 20^400 overflows: the means must not pass through x^p unscaled
    cfg = SamplerConfig(2000, 0)
    a = norm_hp_mc(TWO_TERM, p, cfg)
    b = norm_hp_mc(c * TWO_TERM, p, cfg)
    assert b.value == pytest.approx(c * a.value, rel=1e-12)
    assert b.std_error > 0.0
    assert b.std_error == pytest.approx(c * a.std_error, rel=1e-9)
    line = vertical_mean(TWO_TERM, p, 100.0, 1001).value
    assert vertical_mean(c * TWO_TERM, p, 100.0, 1001).value == pytest.approx(c * line, rel=1e-12)


@pytest.mark.parametrize("p", [540.0, 1000.0])
def test_std_error_does_not_underflow_at_large_p(p):
    # the largest sample norm is just above 1, so the scaled powers sit near 2^-p and
    # their squared deviations from the mean would underflow to 0
    D = DirichletPoly({1: 0.5, 2: 0.5 + 1e-6})
    cfg = SamplerConfig(2000, 0)
    est = norm_hp_mc(D, p, cfg)
    # reference in the log domain: x^p / mean(x^p) = exp(p log x - log mean(x^p))
    x = np.abs(0.5 + (0.5 + 1e-6) * np.exp(1j * torus_angles(cfg, 1)[:, 0]))
    logs = p * np.log(x)
    log_mean = logs.max() + math.log(math.fsum(np.exp(logs - logs.max()).tolist()) / x.size)
    relvar = math.fsum(((np.exp(logs - log_mean) - 1.0) ** 2).tolist()) / (x.size - 1)
    value = math.exp(log_mean / p)
    assert est.value == pytest.approx(value, rel=1e-9)
    assert est.std_error > 0.0
    assert est.std_error == pytest.approx(value * math.sqrt(relvar / x.size) / p, rel=1e-9)


def test_power_means_keep_a_value_at_p_1070():
    # (1/2)^1070 underflows: the largest scaled sample norm must be 1 itself
    D = DirichletPoly({1: 0.5, 2: 0.5 + 1e-6})
    p, cfg = 1070.0, SamplerConfig(2000, 0)
    x = np.abs(0.5 + (0.5 + 1e-6) * np.exp(1j * torus_angles(cfg, 1)[:, 0]))
    logs = p * np.log(x)
    value = math.exp((logs.max() + math.log(math.fsum(np.exp(logs - logs.max()).tolist()) / x.size)) / p)
    assert norm_hp_mc(D, p, cfg).value == pytest.approx(value, rel=1e-9)
    # the line's trapezoid rule, in the log domain too
    R, T = 100.0, 1001
    t = np.linspace(-R, R, T)
    logs = p * np.log(np.abs(0.5 + (0.5 + 1e-6) * np.exp(-1j * t * math.log(2.0))))
    w = np.full(T, 2.0 * R / (T - 1))
    w[[0, -1]] /= 2.0
    line = math.exp((logs.max() + math.log(math.fsum((w * np.exp(logs - logs.max())).tolist()) / (2.0 * R))) / p)
    assert vertical_mean(D, p, R, T).value == pytest.approx(line, rel=1e-9)


def test_mc_rejects_bad_p():
    with pytest.raises(ValueError):
        norm_hp_mc(TWO_TERM, 0.5, SamplerConfig(10, 0))
    with pytest.raises(ValueError):
        norm_hp_mc(TWO_TERM, math.inf, SamplerConfig(10, 0))


def test_constant_poly_short_circuits():
    D = DirichletPoly({1: [3.0, 4.0]})
    est = norm_hp_mc(D, 7.0, SamplerConfig(10, 0))
    assert est.value == 5.0
    assert est.std_error == 0.0
    assert est.method == "exact_parseval"


def test_hinf_grid_two_term():
    est = norm_hinf_grid(TWO_TERM, 64)
    assert est.value == 2.0  # angle 0 is a grid point, sup attained there
    assert est.method == "torus_grid_sup"


def test_hinf_grid_lower_bound_refines_upward():
    D = DirichletPoly({1: 1.0, 2: 0.7, 3: -0.4j, 5: 0.2})
    coarse = norm_hinf_grid(D, 8).value
    fine = norm_hinf_grid(D, 16).value  # doubling keeps old nodes
    finest = norm_hinf_grid(D, 32).value
    assert coarse <= fine <= finest


def test_hinf_grid_dimension_cap():
    D = DirichletPoly({n: 1.0 for n in [2, 3, 5, 7, 11, 13, 17, 19, 23]})
    with pytest.raises(DimensionCapError):
        norm_hinf_grid(D, 4)
    est = norm_hinf_grid(D, 3, dim_cap=9)
    assert est.value <= 9.0 + 1e-12


def test_power_poly_accepted():
    P = bohr_lift(TWO_TERM)
    assert norm_h2_exact(P).value == math.sqrt(2.0)
    est = norm_hp_mc(P, 4.0, SamplerConfig(samples=50000, seed=3))
    assert est.value == pytest.approx(6.0**0.25, abs=4 * est.std_error)


def test_vertical_sup_two_term():
    # positive coefficients peak at t = 0, which an odd node count hits
    est = vertical_sup(TWO_TERM, 50.0, 1001)
    assert est.value == 2.0
    assert est.method == "vertical_sup"


def test_vertical_mean_approaches_parseval():
    est = vertical_mean(TWO_TERM, 2.0, 1.0e4, 200001)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=2e-3)
    assert est.R == 1.0e4


def test_vertical_mean_diagnostic_stabilizes():
    # line means at R, 2R and 4R, the node count scaled to keep the spacing
    rows = [vertical_mean(TWO_TERM, 2.0, 2.0e3 * 2**k, 40000 * 2**k + 1) for k in range(3)]
    values = [est.value for est in rows]
    assert len(values) == 3
    # doubling R twice: successive values drift by less than a percent
    assert abs(values[2] - values[1]) <= abs(values[1] - values[0]) + 0.01 * values[0]


@pytest.mark.parametrize("R", [float("inf"), -float("inf"), float("nan"), 0.0, -1.0, 1e308])
def test_line_estimators_reject_a_meaningless_half_length(R):
    # an infinite R would put NaN into the estimate; 1e308 overflows the node spacing
    with pytest.raises(ValueError):
        vertical_sup(TWO_TERM, R, 11)
    with pytest.raises(ValueError):
        vertical_mean(TWO_TERM, 2.0, R, 11)


@pytest.mark.parametrize("bad, error", [(1, ValueError), (0, ValueError), (True, TypeError), (11.0, TypeError), ("11", TypeError)])
def test_line_estimators_reject_a_meaningless_node_count(bad, error):
    with pytest.raises(error):
        vertical_sup(TWO_TERM, 10.0, bad)
    with pytest.raises(error):
        vertical_mean(TWO_TERM, 2.0, 10.0, bad)


def test_line_estimates_are_plain_python_numbers():
    sup = vertical_sup(TWO_TERM, 10.0, np.int64(101))
    assert type(sup.samples) is int and sup.samples == 101
    assert sup == vertical_sup(TWO_TERM, 10.0, 101)
    mean = vertical_mean(TWO_TERM, 2.0, np.float64(10.0), np.int64(101))
    assert type(mean.value) is float and type(mean.samples) is int and type(mean.R) is float
    assert json.loads(json.dumps(mean.to_dict())) == mean.to_dict()


def test_line_estimates_record_their_half_length():
    assert vertical_sup(TWO_TERM, 10.0, 101).to_dict() == {
        "value": 2.0, "method": "vertical_sup", "std_error": 0.0, "samples": 101, "seed": 0, "R": 10.0,
    }
    assert vertical_mean(TWO_TERM, 2.0, 50.0, 101).to_dict()["R"] == 50.0
    # estimates without a line keep their five keys, and a Monte Carlo one adds its scheme
    assert set(norm_hinf_grid(TWO_TERM, 8).to_dict()) == {"value", "method", "std_error", "samples", "seed"}
    for scheme in ("iid", "kronecker"):
        mc = norm_hp_mc(TWO_TERM, 4.0, SamplerConfig(100, 0, scheme)).to_dict()
        assert set(mc) == {"value", "method", "std_error", "samples", "seed", "scheme"} and mc["scheme"] == scheme


def test_p_limit_monotone_on_shared_sample():
    rows = norm_p_limit_check(TWO_TERM, [1.0, 2.0, 4.0, 8.0], SamplerConfig(samples=2000, seed=13))
    vals = [est.value for _, est in rows]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_empty_polynomial_norms():
    E = DirichletPoly({})
    assert norm_hp_mc(E, 3.0, SamplerConfig(100, 0)).value == 0.0
    assert norm_hinf_grid(E, 8).value == 0.0


def test_constant_power_poly():
    P = PowerPoly({EMPTY_INDEX: 2.0 - 1.0j})
    assert norm_h2_exact(P).value == pytest.approx(math.sqrt(5.0))
    assert norm_hinf_grid(P, 4).value == pytest.approx(math.sqrt(5.0))


def test_hinf_grid_of_a_constant_scans_the_one_point_lattice():
    for P, value in ((PowerPoly({}), 0.0), (PowerPoly({EMPTY_INDEX: [3.0, -4.0]}), 5.0)):
        est = norm_hinf_grid(P, 7)
        assert (est.value, est.method, est.samples) == (value, "torus_grid_sup", 1)


@pytest.mark.parametrize(
    "D, cfg",
    [
        (TWO_TERM, SamplerConfig(100_000, 0)),  # every coordinate used: criterion 11's stream
        (ON_2_AND_7, SamplerConfig(20000, 5)),
        (ON_2_AND_7, SamplerConfig(20000, 5, "kronecker")),
    ],
)
def test_torus_mc_keeps_the_full_width_stream(D, cfg):
    # only the used coordinates are sampled, and they are those of the full-width points
    P = bohr_lift(D)
    x = row_norms(power_values_at_angles(P, torus_angles(cfg, P.width)), P.space)
    assert norm_hp_mc(P, 4.0, cfg) == mc_estimate(x, 4.0, cfg)


@pytest.mark.parametrize("D", [ON_2_AND_7, DirichletPoly({1: 1.0, 2: 1.0, 3: 0.3, 4: 2.0, 6: -1.5})])
def test_iid_estimate_of_a_dirichlet_polynomial_is_that_of_its_lift(D):
    # sorted n and sorted multi-indices order the terms differently; each coefficient must meet its own monomial
    cfg = SamplerConfig(2000, 0)
    P = bohr_lift(D)
    x = row_norms(power_values_at_angles(P, torus_angles(cfg, P.width)), P.space)
    assert norm_hp_mc(D, 4.0, cfg) == mc_estimate(x, 4.0, cfg)


def test_mc_memory_follows_the_used_coordinates(monkeypatch, rng):
    # width 415, 24 used coordinates: full-width angles alone would take 158 MiB
    monkeypatch.setattr(norms, "_worker_count", lambda: 16)  # the work budget, not the CPUs, bounds the workers
    primes = primes_up_to(3000)[:415:18]
    D = DirichletPoly({1: [1.0, 0.0], **{q: rng.normal(size=2) for q in primes}}, CoeffSpace(2))
    assert (bohr_lift(D).width, len(primes)) == (415, 24)
    tracemalloc.start()
    try:
        est = norm_hp_mc(D, 4.0, SamplerConfig(50_000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 50_000
    assert peak <= 32 * 2**20


# -- the chunk-parallel Monte Carlo pass --------------------------------------

# C^2 coefficients on primes 2, 3, 5, 7 and 13, with chained terms (4 = 2 * 2, 12 = 4 * 3)
PARALLEL = DirichletPoly(
    {1: [1.0, 0.5j], 2: [0.5, -1.0], 3: [0.25j, 0.75], 4: [-0.5, 0.5], 12: [1.0, 1.0j], 35: [0.3, 0.0], 13: [0.0, -0.8]},
    CoeffSpace(2),
)
PARALLEL_CHUNK = series.monomial_map(bohr_lift(PARALLEL))[0]


def seeded_outputs(cfg):
    """Every Monte Carlo caller's output at cfg, each through the one Monte Carlo pass."""
    P = bohr_lift(PARALLEL)
    return [
        norm_hp_mc(PARALLEL, 4.0, cfg),
        norm_p_limit_check(PARALLEL, [1.0, 3.0, 8.0], cfg),
        eps_norm_profile(PARALLEL, 4.0, [0.25, 1.0], cfg),
        hplus_norm(PARALLEL, 3.0, cfg),
        contraction_check(P, RadiusVector([0.6] * P.width), 4.0, cfg),
        log_bound_experiment(lambda N: gallery("zeta_shift", N), 4.0, [4, 16], cfg),
        hilbert_criterion(c0_style_family(8), 4.0, 3, cfg),
    ]


def test_kronecker_mc_never_touches_the_factor_table():
    # 2**61 - 1 is prime, far past the factor table's cap; the flow times need no prime position
    before = sieve_limit()
    est = norm_hp_mc(DirichletPoly({1: 1.0, 2**61 - 1: 1.0}), 4.0, SamplerConfig(20000, 0, "kronecker"))
    assert abs(est.value - 6.0**0.25) <= 4 * est.std_error  # E|1 + z|^4 = 6
    assert sieve_limit() <= max(before, 2 * series._TRIAL_PRIMES)


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
@pytest.mark.parametrize("samples", [1, PARALLEL_CHUNK, PARALLEL_CHUNK + 1, 20_000])
def test_seeded_outputs_do_not_depend_on_the_worker_count(monkeypatch, scheme, samples):
    cfg = SamplerConfig(samples, 5, scheme)
    monkeypatch.setattr(norms, "_worker_count", lambda: 1)
    serial = seeded_outputs(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often: a misplaced write would show
    before = threading.active_count()
    try:
        for workers in (2, 3):
            monkeypatch.setattr(norms, "_worker_count", lambda: workers)
            assert seeded_outputs(cfg) == serial
            assert threading.active_count() == before  # no worker outlives a successful pass
    finally:
        sys.setswitchinterval(interval)
    # and every split reads the plain evaluation at the whole-sample draw
    P = bohr_lift(PARALLEL)
    target, points = (P, torus_angles(cfg, P.width)) if scheme == "iid" else (PARALLEL, next(point_blocks(cfg, None, 0, samples, samples)))
    assert serial[0] == mc_estimate(row_norms(evaluate(target, points), PARALLEL.space), 4.0, cfg)


def test_a_lone_line_scan_starts_no_thread_pool():
    # one scan is one share, run inline: concurrent.futures (and the logging it loads) stays unimported
    code = "import sys; from bohrlift import gallery, vertical_sup; vertical_sup(gallery('zeta_shift', 50), 100.0, 1001); print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    env = {**os.environ, "PYTHONPATH": str(Path(norms.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(norms, "_worker_count", lambda: 2)
    build = series.monomial_map

    def failing_in_workers(poly):
        chunk, work_entries, monomials = build(poly)

        def monomials_or_fail(points, work):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)  # late, so that only a join can see it
                raise RuntimeError("worker failed")
            return monomials(points, work)

        return chunk, work_entries, monomials_or_fail

    monkeypatch.setattr(series, "monomial_map", failing_in_workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        norm_hp_mc(PARALLEL, 4.0, SamplerConfig(3 * PARALLEL_CHUNK, 0))
    assert threading.active_count() == before


@pytest.mark.parametrize("D", [gallery("zeta_shift", 16), PARALLEL], ids=["scalar", "C2"])
@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
@pytest.mark.parametrize("samples", ["one", "chunk + 1", "20,000"])
def test_a_stacked_weight_row_is_its_unit_row(D, scheme, samples):
    # a row's estimate depends on its weights alone, not on the rows stacked with it
    samples = {"one": 1, "chunk + 1": series.monomial_map(bohr_lift(D))[0] + 1, "20,000": 20_000}[samples]
    cfg = SamplerConfig(samples, 3, scheme)
    n = np.array(D.indices(), dtype=float)
    W = np.stack([1.0 / n, (n <= 4).astype(float), np.ones_like(n)])
    stacked = norms.norm_hp_rows(D, 4.0, W, cfg)
    for r, est in enumerate(stacked):
        alone = norms.norm_hp_rows(D, 4.0, W[r : r + 1], cfg)[0]
        assert (est.value.hex(), est.std_error.hex()) == (alone.value.hex(), alone.std_error.hex())
        assert est == alone


def test_concurrent_callers_get_the_values_of_serial_calls(monkeypatch):
    # two user threads, each running passes of three workers on 2 CPUs or more, share the
    # workspace free list: a workspace handed to two threads at once would show here
    monkeypatch.setattr(norms, "_worker_count", lambda: 3)
    jobs = [
        (PARALLEL, 4.0, SamplerConfig(6 * PARALLEL_CHUNK + 7, 1)),
        (gallery("zeta_shift", 64), 3.0, SamplerConfig(15_000, 2, "kronecker")),
    ]
    serial = [norm_hp_mc(*job) for job in jobs]
    results = [[] for _ in jobs]
    threads = [threading.Thread(target=lambda job=job, out=out: out.extend(norm_hp_mc(*job) for _ in range(4))) for job, out in zip(jobs, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[est] * 4 for est in serial]


@pytest.mark.parametrize("poly", [PARALLEL, bohr_lift(PARALLEL)], ids=["Dirichlet", "lift"])
@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_draw_blocks_of_one_chunk_and_of_several_give_the_same_norms(monkeypatch, poly, scheme):
    # a block of several chunks draws the doubles of as many one-chunk blocks, and each
    # chunk-wide column view of it is evaluated as a one-chunk block is
    recorded = []
    estimate = norms.mc_estimate
    monkeypatch.setattr(norms, "mc_estimate", lambda x, p, cfg: recorded.append(x.tobytes()) or estimate(x, p, cfg))
    cfg = SamplerConfig(7 * PARALLEL_CHUNK + 5, 4, scheme)
    for draw_chunks in (1, 2, 3, 8):
        monkeypatch.setattr(norms, "_DRAW_CHUNKS", draw_chunks)
        for workers in (1, 2, 3):
            monkeypatch.setattr(norms, "_worker_count", lambda: workers)
            norm_hp_mc(poly, 4.0, cfg)
    assert len(recorded) == 12 and len(set(recorded)) == 1


def test_mc_memory_follows_the_chunk_not_the_samples(monkeypatch):
    # width 424 with 24 used coordinates: 200,000 (samples, 24) angles alone would take 37 MiB
    monkeypatch.setattr(norms, "_worker_count", lambda: 16)
    primes = primes_up_to(3000)
    D = DirichletPoly({1: [1.0, 0.0], **{q: [0.5, 0.25j] for q in primes[:423:19] + [primes[423]]}}, CoeffSpace(2))
    assert (bohr_lift(D).width, len(D)) == (424, 25)
    tracemalloc.start()
    try:
        est = norm_hp_mc(D, 4.0, SamplerConfig(200_000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 200_000
    assert peak <= 32 * 2**20


# the benchmark's torus_mc input: 30 indices below 5000 on 24 primes, the largest the 424th
TORUS_MC_INPUT = DirichletPoly(
    {
        n: [0.5, 0.25j]
        for n in (30, 48, 160, 192, 334, 375, 400, 640, 641, 1142, 1152, 1172, 1202, 1747, 2029,
                  2273, 2339, 2342, 2671, 2689, 2820, 2928, 2939, 2956, 3840, 3867, 4132, 4244, 4413, 4874)
    },
    CoeffSpace(2),
)


def test_the_work_budget_counts_bytes(monkeypatch):
    # per worker, 3,077,984 B of work arrays at 2,114 points and a draw block of 3 chunks at 24
    # coordinates, 1,217,664 B: 4,295,648 B, of which 24 complex chunks (25,165,824 B) fit 5
    monkeypatch.setattr(norms, "_worker_count", lambda: 16)
    splits = []
    run = norms._run_shares
    monkeypatch.setattr(norms, "_run_shares", lambda work, shares: splits.append(len(shares)) or run(work, shares))
    P = bohr_lift(TORUS_MC_INPUT)
    assert P.width == 424 and series.monomial_map(series.pack(P)[1])[:2] == (2114, 3_077_984)
    norm_hp_mc(TORUS_MC_INPUT, 4.0, SamplerConfig(20_000, 0))
    assert norms._WORK_BUDGET == 25_165_824 and splits == [5]


# -- the separable lattice engine ---------------------------------------------


def _lattice_angles(G: int, m: int) -> np.ndarray:
    """Angles of the G^m lattice in C order, the order lattice_value_chunks yields."""
    axes = np.meshgrid(*[np.arange(G)] * m, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1) * (2.0 * math.pi / G)


def _random_power(rng, width: int, dim: int, norm: str, max_exponent: int) -> PowerPoly:
    coeffs = {}
    for k in range(int(rng.integers(1, 8))):
        alpha = [int(e) for e in rng.integers(0, max_exponent + 1, size=width)]
        if k == 0:
            alpha[-1] = max(alpha[-1], 1)  # the lift has the full width
        coeffs[MultiIndex(alpha)] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PowerPoly(coeffs, CoeffSpace(dim, norm))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_lattice_values_match_the_monomial_kernel(rng, norm):
    # exponents up to 2G + 1 fold mod G; the lattice angles go through evaluate
    for width in range(1, 5):
        for dim in range(1, 4):
            for G in (1, 2, 3, 5, 8):
                P = _random_power(rng, width, dim, norm, 2 * G + 1)
                theta = _lattice_angles(G, width)
                expected = evaluate(P, theta)
                values = np.concatenate(list(lattice_value_chunks(P, G)))
                scale = sum(float(np.linalg.norm(v)) for _, v in P.items())
                assert values.shape == expected.shape
                assert np.abs(values - expected).max() <= 1e-13 * scale
                sup = float(row_norms(expected, P.space).max())
                assert abs(norm_hinf_grid(P, G).value - sup) <= 1e-13 * scale


def test_lattice_folds_exponents_mod_grid():
    # on cube roots z^5 = z^2 and z^7 = z: values 2, -1, -1
    P = PowerPoly({MultiIndex((5,)): 1.0, MultiIndex((7,)): 1.0})
    values = np.concatenate(list(lattice_value_chunks(P, 3)))[:, 0]
    assert np.abs(values - [2.0, -1.0, -1.0]).max() <= 1e-15
    assert norm_hinf_grid(P, 3).value == 2.0


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_monomial_lattice_sup_is_its_coefficient_norm(rng, norm):
    for width in range(1, 5):
        for G in (1, 3, 4, 7, 16):
            alpha = [int(e) for e in rng.integers(0, 40, size=width)]
            alpha[-1] += 1
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            P = PowerPoly({MultiIndex(alpha): v}, CoeffSpace(3, norm))
            expected = vector_norm(P[MultiIndex(alpha)], P.space)
            assert abs(norm_hinf_grid(P, G).value - expected) <= 1e-15 * expected


@pytest.mark.parametrize("width", range(1, 7))
def test_c0_gallery_lattice_sup_is_one(width):
    N = primes_up_to(13)[width - 1]  # e_1..e_N lift to exactly `width` coordinates
    D = gallery("c0", N)
    assert bohr_lift(D).width == width
    assert norm_hinf_grid(D, 6).value == pytest.approx(1.0, abs=1e-12)


C0_16 = gallery("c0", 16)


@pytest.mark.parametrize("scheme", ["iid", "kronecker"])
def test_c0_gallery_torus_norm_is_one(scheme):
    # the entries of D_16 at any torus point are unimodular, so every sample norm is 1
    est = norm_hp_mc(C0_16, 4.0, SamplerConfig(4000, 5, scheme))
    assert abs(est.value - 1.0) <= 1e-12
    assert est.std_error <= 1e-12


def test_c0_gallery_limit_rows_translates_and_hplus_are_one():
    cfg = SamplerConfig(2000, 3)
    rows = norm_p_limit_check(C0_16, [1, 2, 8, 64], cfg)
    rows += eps_norm_profile(C0_16, 3.0, [1.0, 0.1], cfg)  # the n = 1 entry keeps its modulus
    rows += [(None, hplus_norm(C0_16, 4.0, cfg))]
    assert len(rows) == 7
    for _, est in rows:
        assert abs(est.value - 1.0) <= 1e-12


def test_c0_gallery_line_mean_and_sup_are_one():
    assert abs(vertical_mean(C0_16, 4.0, 100.0, 1001).value - 1.0) <= 1e-12
    assert abs(vertical_sup(C0_16, 100.0, 1001).value - 1.0) <= 1e-12


def test_lattice_scan_memory_follows_one_block(rng):
    # 16^5 lattice points at dim 2: the whole lattice of values alone is 2 MiB, and
    # contracting the trailing axes of the full tensor first holds d_1 + 1 slices
    # at once and peaks past 12 MiB
    alphas = set()
    while len(alphas) < 12:
        alphas.add(tuple(int(e) for e in rng.integers(0, 4, size=5)))
    P = PowerPoly({MultiIndex(a): rng.normal(size=2) + 1j for a in alphas}, CoeffSpace(2))
    assert P.width == 5
    tracemalloc.start()
    try:
        est = norm_hinf_grid(P, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 16**5
    assert peak <= 8 * 2**20


def test_lattice_scan_holds_one_block_at_a_time():
    # 32^4 points at dim 2 come in blocks of one chunk (1 MiB); a scan that keeps the
    # previous block bound while the engine makes the next peaks at 2.2 MiB
    rng = np.random.default_rng(7)
    alphas = set()
    while len(alphas) < 12:
        alphas.add(tuple(int(e) for e in rng.integers(0, 4, size=4)))
    P = PowerPoly({MultiIndex(a): rng.normal(size=2) + 1j * rng.normal(size=2) for a in sorted(alphas)}, CoeffSpace(2))
    assert P.width == 4
    tracemalloc.start()
    try:
        est = norm_hinf_grid(P, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 32**4
    assert peak <= 1.6 * 2**20


def test_lattice_blocks_hold_at_most_a_chunk_of_values(rng):
    # 6 used coordinates at dim 2 and G = 16: one leading-axis slice alone is 2 * 16^5
    # values, 32 times the chunk, so slices are scanned as lattices of fewer coordinates
    alphas = {(0, 0, 0, 0, 0, 1)}
    while len(alphas) < 12:
        alphas.add(tuple(int(e) for e in rng.integers(0, 4, size=6)))
    P = PowerPoly({MultiIndex(a): rng.normal(size=2) + 1j * rng.normal(size=2) for a in alphas}, CoeffSpace(2))
    G = 16
    scale = sum(float(np.linalg.norm(v)) for _, v in P.items())
    lo = 0
    for b, block in enumerate(lattice_value_chunks(P, G)):
        assert block.shape[1] == 2 and block.size <= series._CHUNK_ENTRIES
        if b % 101 == 0 or lo + len(block) == G**6:  # every 101st block against the monomial kernel, and the last
            points = np.unravel_index(np.arange(lo, lo + len(block)), (G,) * 6)  # C order, as the blocks
            expected = evaluate(P, np.stack(points, axis=1) * (2.0 * math.pi / G))
            assert np.abs(block - expected).max() <= 4e-14 * scale
        lo += len(block)
    assert lo == G**6


def test_lattice_scan_of_a_six_prime_polynomial_stays_small():
    # zeta_shift 13 uses the primes 2, ..., 13: a leading-axis slice at G = 16 is 16^5 values (16 MiB)
    D = gallery("zeta_shift", 13)
    tracemalloc.start()
    try:
        est = norm_hinf_grid(D, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 16**6
    assert peak <= 8 * 2**20


def test_lattice_scan_never_builds_a_coefficient_box_past_the_chunk():
    # 1 + z_0^15 + ... + z_4^15 at G = 16: the folded degree box is 16^5 entries (16 MiB)
    P = PowerPoly({EMPTY_INDEX: 1.0, **{MultiIndex((0,) * j + (15,)): 1.0 for j in range(5)}})
    tracemalloc.start()
    try:
        est = norm_hinf_grid(P, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.value, est.samples) == (6.0, 16**5)
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("G", [1, 3, 16])
def test_lattice_scan_runs_on_the_used_coordinates(G):
    # 97 is the 25th prime: the lift has width 25 but one used coordinate
    est = norm_hinf_grid(DirichletPoly({1: 1.0, 97: 1.0}), G)
    assert (est.value, est.samples) == (2.0, G)


def test_lattice_scan_counts_only_used_points():
    # 11 is the 5th prime; a scan over the width would visit 16^5 points
    est = norm_hinf_grid(DirichletPoly({1: 1.0, 11: 1.0}), 16)
    assert (est.value, est.samples) == (2.0, 16)
    # two used coordinates far apart pass the default cap of 8
    P = PowerPoly({MultiIndex.from_pairs([(0, 1)]): 1.0, MultiIndex.from_pairs([(30, 1)]): 1.0})
    assert P.width == 31 > norms.DEFAULT_GRID_DIM_CAP
    est = norm_hinf_grid(P, 8)
    assert est.samples == 64 and est.value == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("bad", [16.5, True, "16", None])
def test_hinf_grid_rejects_a_non_integer_grid(bad):
    with pytest.raises(TypeError):
        norm_hinf_grid(TWO_TERM, bad)


def test_hinf_grid_rejects_an_empty_grid():
    with pytest.raises(ValueError):
        norm_hinf_grid(TWO_TERM, 0)


def test_hinf_grid_stores_a_numpy_grid_as_int():
    est = norm_hinf_grid(TWO_TERM, np.int64(16))
    assert type(est.samples) is int and est.samples == 16
    assert json.loads(json.dumps(est.to_dict()))["value"] == 2.0
