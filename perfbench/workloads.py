"""Inputs, tasks, output checks and stage replays of the four workloads.

Every input is a pure function of (workload, seed, scale).  A seed changes
indices, coefficients, radii and sampler seeds, never the size of a task,
so runs on different seeds do the same nominal work.

The benchmark reaches the package only through names in
``bohrlift.__all__`` and through ``bohrlift.cli.run``.  A replayed stage
looks its function up once, here; when a later version stops exporting
it, the stage is skipped and its metric is reported as missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import bohrlift

WORKLOADS = ("torus_mc", "line_scan", "lattice_sup", "lift_roundtrip")

#: Relative slack for inequalities that hold exactly up to rounding.
REL = 1e-12
#: Number of standard errors a Monte Carlo estimate may sit from its reference.
MC_SIGMAS = 4.0
#: Target relative standard error of the time-to-solution metric.
TTS_REL_SE = 1e-3


def _exported(name: str):
    return getattr(bohrlift, name, None) if name in bohrlift.__all__ else None


BOHR_LIFT = _exported("bohr_lift")
BOHR_TRANSFORM = _exported("bohr_transform")
TORUS_ANGLES = _exported("torus_angles")
POWER_VALUES = _exported("power_values_at_angles")
LINE_VALUES = _exported("dirichlet_line_values")
PARTIAL_SUM = _exported("partial_sum")
PAIRWISE_MEAN = _exported("pairwise_mean")
PAIRWISE_SUM = _exported("pairwise_sum")
GALLERY = _exported("gallery")
DUMPS = _exported("dumps")
LOADS_DIRICHLET = _exported("loads_dirichlet")
LOADS_POWER = _exported("loads_power")
# The one replay function outside bohrlift.__all__: the package exports no
# row-norm helper, so the stage is reached through its module.
ROW_NORMS = getattr(getattr(bohrlift, "spaces", None), "row_norms", None)

#: Time window of the replayed Kronecker flow; only the cost of drawing matters.
FLOW_SPAN = float(1 << 20)
#: Lattice points per evaluation call, as the lattice estimators chunk them.
LATTICE_CHUNK = 2_000_000


class CheckFailed(Exception):
    """A task's output disagrees with its independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Task:
    kind: str
    work: int  # nominal work units, computed from the inputs
    call: Callable[[Any], Any]  # (tracer) -> output; the timed part
    check: Callable[[Any, Any], None]  # (tracer, output); raises on a wrong output
    replay: Callable[[Any, list, Any], None] | None = None  # (tracer, call spans, output)
    tts: Callable[[Any], float] | None = None  # output -> factor scaling wall to the accuracy target


# -- replayed stages ----------------------------------------------------------


def stage(tr, name: str, parent, fn, *args):
    """Run one replayed stage under its own span, or skip it when fn or an input is gone."""
    if fn is None or any(a is None for a in args):
        tr.missing.add(name)
        return None
    with tr.span(name, parent):
        return fn(*args)


def _active_coords(P) -> int:
    return len({pos for alpha, _ in P.items() for pos, _ in alpha.pairs})


def _count_points(tr, points, P=None) -> None:
    if points is None:
        return
    tr.count("sampling.angle_bytes", points.nbytes)
    if P is not None:
        n = points.shape[0]
        tr.count("sampling.active_coords", n * _active_coords(P))
        tr.count("sampling.coords", n * points.shape[1])


def _count_eval(tr, values, terms: int) -> None:
    if values is None:
        return
    n, dim = values.shape
    tr.count("series.evals", n * terms)
    tr.count("series.bytes_computed", 16 * n * (terms + dim))  # monomial matrix + result


def _flow_times(cfg) -> np.ndarray:
    return np.random.default_rng(cfg.seed).uniform(0.0, FLOW_SPAN, size=cfg.samples)


def _mc_reduce(x: np.ndarray, p: float) -> float:
    xp = x**p
    mean = PAIRWISE_MEAN(xp)
    PAIRWISE_SUM((xp - mean) ** 2)
    return mean


def _line_mean(x: np.ndarray, p: float) -> float:
    xp = x**p
    return PAIRWISE_SUM(xp) - 0.5 * (xp[0] + xp[-1])


MC_REDUCE = _mc_reduce if PAIRWISE_MEAN and PAIRWISE_SUM else None
LINE_MEAN = _line_mean if PAIRWISE_SUM else None


def replay_mc(tr, parent, D, cfg, ps, evaluate=True) -> None:
    """Stages of norm_hp_mc / norm_p_limit_check: lift, points, evaluation, row norms, reduction."""
    P = stage(tr, "series.lift", parent, BOHR_LIFT, D)
    if cfg.scheme == "kronecker":
        points = stage(tr, "sampling.angles", parent, _flow_times, cfg)
        _count_points(tr, points)
        if not evaluate:
            return
        values = stage(tr, "series.line_eval", parent, LINE_VALUES, D, points)
    else:
        points = stage(tr, "sampling.angles", parent, TORUS_ANGLES, cfg, None if P is None else P.width)
        _count_points(tr, points, P)
        if not evaluate:
            return
        values = stage(tr, "series.torus_eval", parent, POWER_VALUES, P, points)
    _count_eval(tr, values, len(D))
    x = stage(tr, "spaces.row_norms", parent, ROW_NORMS, values, D.space)
    for p in ps:
        stage(tr, "sampling.reduce", parent, MC_REDUCE, x, p)


def _lattice_angles(G: int, m: int, lo: int, hi: int) -> np.ndarray:
    flat = np.arange(lo, hi, dtype=np.int64)
    theta = np.empty((flat.size, m), dtype=np.float64)
    for j in range(m):
        theta[:, j] = (flat // G ** (m - 1 - j)) % G
    return theta * (2.0 * math.pi / G)


def replay_lattice(tr, parent, P, G: int, reduce: bool) -> None:
    """Stages of a lattice scan: lattice points, evaluation, row norms, then max if reduce."""
    m = P.width
    total = G**m
    chunk = max(1, LATTICE_CHUNK // len(P))
    for lo in range(0, total, chunk):
        theta = stage(tr, "sampling.angles", parent, _lattice_angles, G, m, lo, min(total, lo + chunk))
        _count_points(tr, theta, P)
        values = stage(tr, "series.torus_eval", parent, POWER_VALUES, P, theta)
        _count_eval(tr, values, len(P))
        x = stage(tr, "spaces.row_norms", parent, ROW_NORMS, values, P.space)
        if reduce:
            stage(tr, "sampling.reduce", parent, np.max, x)


def replay_line(tr, parent, D, R: float, nodes: int, p: float | None) -> None:
    """Stages of vertical_sup (p None) or vertical_mean: nodes, line values, row norms, reduction."""
    t = stage(tr, "sampling.angles", parent, np.linspace, -R, R, nodes)
    _count_points(tr, t)
    values = stage(tr, "series.line_eval", parent, LINE_VALUES, D, t)
    _count_eval(tr, values, len(D))
    x = stage(tr, "spaces.row_norms", parent, ROW_NORMS, values, D.space)
    reduce = np.max if p is None else (LINE_MEAN and partial(LINE_MEAN, p=p))
    stage(tr, "sampling.reduce", parent, reduce, x)


# -- shared checks ------------------------------------------------------------


def _h2(tr, poly) -> float:
    with tr.span("norms.h2_exact"):
        return bohrlift.norm_h2_exact(poly).value


def _norm_sum(poly) -> float:
    """Sum of the coefficient norms, an upper bound for every H_p norm (l2 coefficients)."""
    return math.fsum(float(np.linalg.norm(v)) for _, v in poly.items())


def _random_coeffs(rng, count: int, dim: int) -> np.ndarray:
    return rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


# -- torus_mc -----------------------------------------------------------------

TORUS_SIZES = {
    "full": dict(samples=20_000, big_samples=200_000, sampler_seeds=6),
    "tiny": dict(samples=400, big_samples=2_000, sampler_seeds=1),
}
TORUS_WIDTH = 424  # the largest prime factor is the 424th prime, 2939
TORUS_ACTIVE = 24
TORUS_TERMS = 30
TORUS_BOUND = 5000


def torus_poly(rng) -> "bohrlift.DirichletPoly":
    """30 indices below 5000 on exactly 24 primes, the largest the 424th; C^2 l2 coefficients.

    Twenty-one indices are q * c with q a distinct prime of the active set
    (always the 424th prime) and c a {2, 3, 5}-smooth cofactor; the other
    nine are {2, 3, 5}-smooth and use each of 2, 3 and 5.
    """
    primes = bohrlift.primes_up_to(TORUS_BOUND)
    small = primes[:3]
    large = [primes[TORUS_WIDTH - 1]] + [
        int(q) for q in rng.choice(primes[3 : TORUS_WIDTH - 1], TORUS_ACTIVE - 4, replace=False)
    ]

    def smooth(n: int) -> bool:
        for p in small:
            while n % p == 0:
                n //= p
        return n == 1

    cofactors = [c for c in range(1, TORUS_BOUND) if smooth(c)]
    indices = {q * int(rng.choice([c for c in cofactors if q * c < TORUS_BOUND])) for q in large}
    while True:
        extra = [int(n) for n in rng.choice(cofactors[1:], TORUS_TERMS - len(large), replace=False)]
        if not indices & set(extra) and all(any(n % p == 0 for n in extra) for p in small):
            break
    indices |= set(extra)
    coeffs = _random_coeffs(rng, TORUS_TERMS, 2)
    D = bohrlift.DirichletPoly(dict(zip(sorted(indices), coeffs)), bohrlift.CoeffSpace(2))
    P = bohrlift.bohr_lift(D)
    if (len(D), P.width, _active_coords(P)) != (TORUS_TERMS, TORUS_WIDTH, TORUS_ACTIVE):
        raise RuntimeError("torus_mc input construction broke its size invariants")
    return D


def _mc_check(D, p: float):
    def check(tr, est) -> None:
        h2 = _h2(tr, D)
        band = MC_SIGMAS * est.std_error
        if p == 2.0:
            expect(abs(est.value - h2) <= band, f"MC H_2 {est.value} vs exact {h2} beyond {band}")
        else:
            expect(est.value >= h2 - band, f"MC H_{p:g} {est.value} below H_2 {h2} by more than {band}")
        expect(est.value <= _norm_sum(D) * (1 + REL), f"MC H_{p:g} {est.value} above sum of |a_n|")

    return check


def _rel_se_factor(est) -> float:
    return (est.std_error / est.value / TTS_REL_SE) ** 2


def _hp_mc_task(D, p: float, cfg, headline: bool) -> Task:
    def call(tr):
        with tr.span("norms.hp_mc"):
            return bohrlift.norm_hp_mc(D, p, cfg)

    def replay(tr, spans, est):
        replay_mc(tr, spans[0], D, cfg, [p])

    return Task(
        f"hp_mc p={p:g} {cfg.scheme} S={cfg.samples}",
        cfg.samples * len(D),
        call,
        _mc_check(D, p),
        replay,
        _rel_se_factor if headline else None,
    )


def _eps_profile_task(D, p: float, cfg) -> Task:
    def call(tr):
        with tr.span("translations.eps_profile"):
            return bohrlift.eps_norm_profile(D, p, None, cfg)

    def check(tr, rows) -> None:
        eps = [e for e, _ in rows]
        with tr.span("translations.eps_profile"):
            exact = bohrlift.eps_norm_profile(D, 2.0, eps)  # closed form at p = 2
        for (e, est), (_, h2) in zip(rows, exact):
            top = math.fsum(float(np.linalg.norm(v)) * n ** (-e) for n, v in D.items())
            expect(est.value >= h2.value - MC_SIGMAS * est.std_error, f"eps={e}: below H_2 of the translate")
            expect(est.value <= top * (1 + REL), f"eps={e}: above sum of |a_n| n^-eps")

    def replay(tr, spans, rows):
        # the profile evaluates through an internal monomial matrix; only
        # the lift and the sample points have public counterparts
        replay_mc(tr, spans[0], D, cfg, [], evaluate=False)

    return Task(f"eps_profile p={p:g}", cfg.samples * len(D), call, check, replay)


def _p_limit_task(D, ps, cfg) -> Task:
    def call(tr):
        with tr.span("norms.hp_mc"):
            return bohrlift.norm_p_limit_check(D, ps, cfg)

    def check(tr, rows) -> None:
        values = [est.value for _, est in rows]
        expect(all(b >= a * (1 - REL) for a, b in zip(values, values[1:])), f"p-limit table not monotone: {values}")
        for p, est in rows:
            if p == 2.0:
                _mc_check(D, 2.0)(tr, est)
        expect(values[-1] <= _norm_sum(D) * (1 + REL), "p-limit value above sum of |a_n|")

    def replay(tr, spans, rows):
        replay_mc(tr, spans[0], D, cfg, ps)

    return Task("p_limit", cfg.samples * len(D), call, check, replay)


def build_torus_mc(rng, size, tr, workdir) -> list[Task]:
    with tr.span("primes.sieve"):
        bohrlift.primes_up_to(TORUS_BOUND)
    D = torus_poly(rng)
    seeds = _seeds(rng, size["sampler_seeds"] + 1)
    Cfg = bohrlift.SamplerConfig
    tasks = []
    for seed in seeds[:-1]:
        for scheme in (bohrlift.IID_UNIFORM, bohrlift.KRONECKER_QMC):
            for p in (2.0, 4.0):
                headline = p == 4.0 and scheme == bohrlift.IID_UNIFORM
                tasks.append(_hp_mc_task(D, p, Cfg(size["samples"], seed, scheme), headline))
    for p in (2.0, 4.0):
        tasks.append(_hp_mc_task(D, p, Cfg(size["big_samples"], seeds[-1], bohrlift.IID_UNIFORM), p == 4.0))
    cfg = Cfg(size["samples"], seeds[0], bohrlift.IID_UNIFORM)
    tasks.append(_eps_profile_task(D, 4.0, cfg))
    tasks.append(_p_limit_task(D, [1.0, 2.0, 4.0, 8.0], cfg))
    return tasks


# -- line_scan ----------------------------------------------------------------

LINE_SIZES = {
    "full": dict(n_max=4096, sweep_nodes=8193, mean_polys=40, mean_nodes=20_001),
    "tiny": dict(n_max=64, sweep_nodes=257, mean_polys=2, mean_nodes=2_001),
}
SWEEP_R_PER_N = 100.0
MEAN_R = 1e4
MEAN_SIZES = (20, 25, 30, 35, 40)


def _sweep_task(D, Ns, nodes: int) -> Task:
    coeffs = [(n, complex(v[0])) for n, v in sorted(D.items())]

    def block(N: int) -> tuple[float, float]:
        """(|sum of a_n|, sum of |a_n|) over n <= N: the sup on the line lies between them."""
        kept = [c for n, c in coeffs if n <= N]
        total = complex(math.fsum(c.real for c in kept), math.fsum(c.imag for c in kept))
        return abs(total), math.fsum(abs(c) for c in kept)

    def call(tr):
        with tr.span("partial_sums.log_bound"):
            return bohrlift.log_bound_experiment(lambda size: D, math.inf, Ns, t_samples=nodes, r_per_n=SWEEP_R_PER_N)

    def check(tr, rows) -> None:
        # odd node counts put a node at t = 0, where D(0) = sum of a_n
        full_lo, full_hi = block(D.max_index)
        expect([row.N for row in rows] == list(Ns), "sweep rows do not match the requested N")
        for row in rows:
            lo, hi = block(row.N)
            ok = lo / full_hi * (1 - REL) <= row.ratio <= hi / full_lo * (1 + REL)
            expect(ok, f"N={row.N}: ratio {row.ratio} outside [{lo / full_hi}, {hi / full_lo}]")

    def replay(tr, spans, rows):
        parent = spans[0]
        replay_line(tr, parent, D, SWEEP_R_PER_N * max(D.max_index, 2), nodes, None)
        for N in Ns:
            S = stage(tr, "series.partial_sum", parent, PARTIAL_SUM, D, N)
            replay_line(tr, parent, S, SWEEP_R_PER_N * N, nodes, None)

    work = nodes * (len(D) + sum(sum(1 for n in D.indices() if n <= N) for N in Ns))
    return Task("log_bound sweep", work, call, check, replay, lambda rows: 1.0)


def _vertical_mean_task(E, p: float, nodes: int) -> Task:
    def call(tr):
        with tr.span("norms.vertical"):
            return bohrlift.vertical_mean(E, p, MEAN_R, nodes)

    def check(tr, est) -> None:
        # trapezoid weights are positive and sum to one, so the p = 4 mean
        # dominates the p = 2 mean, which at R = 1e4 is within a few 1e-3 of H_2
        h2 = _h2(tr, E)
        expect(0.95 * h2 <= est.value <= _norm_sum(E) * (1 + REL), f"line mean {est.value} outside [0.95 H_2, sum |a_n|]")

    def replay(tr, spans, est):
        replay_line(tr, spans[0], E, MEAN_R, nodes, p)

    return Task(f"vertical_mean terms={len(E)}", nodes * len(E), call, check, replay)


def build_line_scan(rng, size, tr, workdir) -> list[Task]:
    with tr.span("primes.sieve"):
        bohrlift.primes_up_to(size["n_max"])
    with tr.span("gallery.build"):
        D = bohrlift.gallery("zeta_shift", size["n_max"])
    Ns = [2**k for k in range(2, size["n_max"].bit_length())]
    tasks = [_sweep_task(D, Ns, size["sweep_nodes"])]
    for k, seed in enumerate(_seeds(rng, size["mean_polys"])):
        with tr.span("gallery.build"):
            E = bohrlift.gallery("random_unimodular", MEAN_SIZES[k % len(MEAN_SIZES)], seed=seed)
        tasks.append(_vertical_mean_task(E, 4.0, size["mean_nodes"]))
    return tasks


# -- lattice_sup --------------------------------------------------------------

LATTICE_SIZES = {
    "full": dict(grids=((4, 16, 12), (4, 20, 3), (4, 32, 1), (5, 16, 1)), poisson=5, poisson_grid=64, m_max=6),
    "tiny": dict(grids=((4, 4, 1), (5, 4, 1)), poisson=1, poisson_grid=48, m_max=2),
}
LATTICE_TERMS = 12
POISSON_TERMS = 10
MAX_EXPONENT = 3
C0_SIZE = 8


def lattice_poly(rng, width: int, terms: int) -> "bohrlift.PowerPoly":
    """terms distinct exponent vectors in [0, 3]^width, the first using the last coordinate."""
    alphas: list[tuple[int, ...]] = []
    while len(alphas) < terms:
        a = [int(e) for e in rng.integers(0, MAX_EXPONENT + 1, size=width)]
        if not alphas:
            a[-1] = max(a[-1], 1)
        if tuple(a) not in alphas:
            alphas.append(tuple(a))
    coeffs = _random_coeffs(rng, terms, 2)
    return bohrlift.PowerPoly(
        {bohrlift.MultiIndex(a): c for a, c in zip(alphas, coeffs)}, bohrlift.CoeffSpace(2)
    )


def _hinf_task(P, G: int) -> Task:
    def call(tr):
        with tr.span("norms.hinf_grid"):
            return bohrlift.norm_hinf_grid(P, G)

    def check(tr, est) -> None:
        # G exceeds every per-coordinate degree, so the lattice mean of |P|^2 is H_2^2
        h2 = _h2(tr, P)
        ok = h2 * (1 - REL) <= est.value <= _norm_sum(P) * (1 + REL)
        expect(ok, f"lattice sup {est.value} outside [H_2 = {h2}, sum |a_n|]")

    def replay(tr, spans, est):
        tr.count("norms.lattice_points", est.samples)
        replay_lattice(tr, spans[0], P, G, reduce=True)

    return Task(f"hinf_grid m={P.width} G={G}", G**P.width * len(P), call, check, replay, lambda est: 1.0)


def _poisson_task(P, r, G: int) -> Task:
    def call(tr):
        with tr.span("poisson.numeric"):
            numeric = bohrlift.poisson_convolve_numeric(P, r, G)
        with tr.span("poisson.exact"):
            exact = bohrlift.poisson_convolve_exact(P, r)
        return numeric, exact

    def check(tr, out) -> None:
        gap = bohrlift.max_coeff_gap(*out)
        expect(gap <= 1e-9, f"numeric vs exact Poisson gap {gap}")

    def replay(tr, spans, out):
        replay_lattice(tr, spans[0], P, G, reduce=False)

    return Task(f"poisson m={P.width} G={G}", G**P.width * len(P), call, check, replay)


def _criterion_task(m_max: int) -> Task:
    family = bohrlift.c0_style_family(C0_SIZE)

    def call(tr):
        with tr.span("analysis.criterion"):
            return bohrlift.hilbert_criterion(family, math.inf, m_max)

    def check(tr, report) -> None:
        # every restriction of the c0 family has sup norm exactly 1
        values = [est.value for _, est in report.per_m]
        expect(len(values) == m_max and all(abs(v - 1.0) <= REL for v in values), f"c0 sups {values}")

    work = 0
    alphas = [bohrlift.factorize(n) for n in range(1, C0_SIZE + 1)]
    for m in range(1, m_max + 1):
        kept = [a for a in alphas if a.width <= m]
        work += 16 ** max(a.width for a in kept) * len(kept)
    return Task(f"criterion c0({C0_SIZE}) m<={m_max}", work, call, check)


def build_lattice_sup(rng, size, tr, workdir) -> list[Task]:
    with tr.span("primes.sieve"):
        bohrlift.primes_up_to(bohrlift.nth_prime(5))
    tasks = []
    for width, G, count in size["grids"]:
        for _ in range(count):
            tasks.append(_hinf_task(lattice_poly(rng, width, LATTICE_TERMS), G))
    for _ in range(size["poisson"]):
        P = lattice_poly(rng, 3, POISSON_TERMS)
        r = bohrlift.RadiusVector(rng.uniform(0.3, 0.6, size=3).tolist())
        tasks.append(_poisson_task(P, r, size["poisson_grid"]))
    tasks.append(_criterion_task(size["m_max"]))
    return tasks


# -- lift_roundtrip -----------------------------------------------------------

LIFT_SIZES = {
    "full": dict(chains=(2000, 3000, 4000, 5000), blocks=10, block=5000, abel=4, abel_size=300),
    "tiny": dict(chains=(50, 80), blocks=2, block=100, abel=1, abel_size=40),
}
INDEX_RANGE = 100_000
ABEL_N = 20


def _chain_task(cli, size: int, seed: int, reference, workdir: Path) -> Task:
    d_path, p_path, back_path = (str(workdir / name) for name in ("D.json", "P.json", "D2.json"))
    specs = [
        cli.ExperimentSpec("gallery", dict(name="random_unimodular", size=size, seed=seed, sigma=0.51), d_path),
        cli.ExperimentSpec("lift", dict(input_path=d_path, gallery_name=None, size=8, sigma=0.51, seed=0), p_path),
        cli.ExperimentSpec("transform", dict(input_path=p_path), back_path),
    ]

    def call(tr):
        for spec in specs:
            with tr.span("cli.run"):
                code = cli.run(spec)
            if code != 0:
                raise CheckFailed(f"cli {spec.subcommand} exited {code}")
        return back_path

    def check(tr, path) -> None:
        text = Path(path).read_text()
        with tr.span("serialize.loads"):
            back = bohrlift.loads_dirichlet(text)
        expect(back == reference, f"transform(lift(D)) != D at size {size}")

    def dumps(tr, parent, poly) -> None:
        text = stage(tr, "serialize.dumps", parent, DUMPS, poly)
        if text is not None:
            tr.count("serialize.bytes", len(text))

    def loads(tr, parent, fn, path):
        text = Path(path).read_text()
        tr.count("serialize.bytes", len(text))
        return stage(tr, "serialize.loads", parent, fn, text)

    def replay(tr, spans, path):
        gallery_span, lift_span, transform_span = spans
        D = stage(tr, "gallery.build", gallery_span, GALLERY and partial(GALLERY, seed=seed), "random_unimodular", size)
        dumps(tr, gallery_span, D)
        D = loads(tr, lift_span, LOADS_DIRICHLET, d_path)
        P = stage(tr, "series.lift", lift_span, BOHR_LIFT, D)
        dumps(tr, lift_span, P)
        P = loads(tr, transform_span, LOADS_POWER, p_path)
        D = stage(tr, "series.transform", transform_span, BOHR_TRANSFORM, P)
        dumps(tr, transform_span, D)

    return Task(f"cli chain size={size}", size, call, check, replay, lambda path: 1.0)


def _block_task(ns: list[int]) -> Task:
    def call(tr):
        with tr.span("primes.factorize"):
            alphas = [bohrlift.factorize(n) for n in ns]
        with tr.span("primes.index_of"):
            back = [bohrlift.index_of(a) for a in alphas]
        tr.count("primes.calls", 2 * len(ns))
        return back

    def check(tr, back) -> None:
        expect(back == ns, "index_of(factorize(n)) != n")

    return Task(f"factorize block {len(ns)}", len(ns), call, check)


def _abel_task(E, eps: float) -> Task:
    M = E.max_index

    def call(tr):
        with tr.span("partial_sums.abel"):
            return bohrlift.abel_identity_check(E, ABEL_N, M, eps)

    def check(tr, out) -> None:
        expect(out[2] <= 1e-12, f"summation-by-parts gap {out[2]}")

    return Task(f"abel N={ABEL_N} M={M}", len(E), call, check)


def build_lift_roundtrip(rng, size, tr, workdir) -> list[Task]:
    from bohrlift import cli

    with tr.span("primes.sieve"):
        bohrlift.primes_up_to(INDEX_RANGE)
    tasks = []
    for n, seed in zip(size["chains"], _seeds(rng, len(size["chains"]))):
        with tr.span("gallery.build"):
            reference = bohrlift.gallery("random_unimodular", n, seed=seed)
        tasks.append(_chain_task(cli, n, seed, reference, workdir))
    for _ in range(size["blocks"]):
        tasks.append(_block_task([int(n) for n in rng.integers(1, INDEX_RANGE + 1, size=size["block"])]))
    for seed in _seeds(rng, size["abel"]):
        with tr.span("gallery.build"):
            E = bohrlift.gallery("random_unimodular", size["abel_size"], seed=seed)
        tasks.append(_abel_task(E, float(rng.uniform(0.1, 0.5))))
    return tasks


BUILDERS = {
    "torus_mc": (build_torus_mc, TORUS_SIZES),
    "line_scan": (build_line_scan, LINE_SIZES),
    "lattice_sup": (build_lattice_sup, LATTICE_SIZES),
    "lift_roundtrip": (build_lift_roundtrip, LIFT_SIZES),
}


def build(workload: str, seed: int, scale: str, tr, workdir: Path) -> list[Task]:
    """Generate the workload's inputs from its seed and return its task list (one pass)."""
    builder, sizes = BUILDERS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return builder(rng, sizes[scale], tr, workdir)
