#!/usr/bin/env python3
"""bohrlift benchmark: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload torus_mc --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` of the checkout it lives in,
builds the workload's inputs from the seed, then runs whole passes over
the workload's task list until the next pass would end past --seconds
(at least one pass).  Every task's output is checked; a wrong output or
an exception counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics, with tracing off.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics
for one set-up plus one pass.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: BLAS threads per process; one keeps runs steady on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Tasks that must lie beyond the p90 for it to be reported as reliable.
P90_MIN_BEYOND = 10
#: Time of the speed probe at the reference machine speed that times are scaled to.
PROBE_SECONDS = 2.5e-3

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "tts_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> self-time metric "<name>_s"
SPAN_METRICS = (
    "primes.sieve",
    "primes.factorize",
    "primes.index_of",
    "gallery.build",
    "series.lift",
    "series.transform",
    "series.partial_sum",
    "series.line_eval",
    "series.torus_eval",
    "sampling.angles",
    "sampling.reduce",
    "spaces.row_norms",
    "norms.hp_mc",
    "norms.vertical",
    "norms.hinf_grid",
    "norms.h2_exact",
    "translations.eps_profile",
    "poisson.numeric",
    "poisson.exact",
    "partial_sums.log_bound",
    "partial_sums.abel",
    "analysis.criterion",
    "serialize.dumps",
    "serialize.loads",
    "cli.run",
)
COUNT_METRICS = {
    "primes.calls": "count",
    "series.evals": "count",
    "series.bytes_computed": "bytes",
    "sampling.angle_bytes": "bytes",
    "norms.lattice_points": "count",
    "serialize.bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "sampling.active_ratio": "frac",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- provenance ---------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bohrlift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _provenance(args, cycles: int, tasks_per_cycle: int, samples: dict) -> dict:
    import bohrlift
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "package": f"bohrlift {bohrlift.__version__}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": cycles,
        "tasks_per_pass": tasks_per_cycle,
        "samples": samples,
    }


# -- set-up -------------------------------------------------------------------


def _setup_probe(args) -> int:
    """Child mode: time import, input generation and sieve warm-up in a fresh interpreter."""
    t0 = perf_counter()
    import workloads
    from tracing import OFF

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workloads.build(args.workload, args.seed, args.scale, OFF, Path(tmp))
        print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


def _setup_times(args, probe) -> tuple[list[float], list[float]]:
    """(scaled, unscaled) set-up times of fresh interpreters, probed for speed on either side."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--setup-probe",
    ]
    scaled, unscaled = [], []
    before = probe.seconds()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        after = probe.seconds()
        t = json.loads(out.stdout.splitlines()[-1])["setup_s"]
        unscaled.append(t)
        scaled.append(t * 2.0 * PROBE_SECONDS / (before + after))
        before = after
    return scaled, unscaled


# -- measurement --------------------------------------------------------------


class SpeedProbe:
    """A fixed mix of the kinds of work the tasks do: complex exp, matmul,
    a memory copy, JSON encoding and a Python loop.

    On a machine shared with other processes the speed of a core swings
    by up to 2x over seconds to minutes.  Timed between consecutive
    tasks, the probe measures the speed a task ran at; a task's time is
    scaled by PROBE_SECONDS over the mean of the probes on either side.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 10_000)
        self._a = np.random.default_rng(0).normal(size=(150, 64))
        self._block = np.ones(1 << 19)
        self._rows = [{"n": n, "re": [n / 7.0], "im": [n / 3.0]} for n in range(200)]

    def seconds(self) -> float:
        t0 = perf_counter()
        for _ in range(2):
            self._np.exp(1j * self._x)
            self._a @ self._a.T
            self._block.copy()
            json.dumps(self._rows)
            s = 0
            for i in range(5_000):
                s += i & 7
        return perf_counter() - t0


class Record:
    __slots__ = ("slot", "task", "wall", "out", "error", "scale")

    def __init__(self, slot, task, wall, out, error):
        self.slot, self.task, self.wall, self.out, self.error = slot, task, wall, out, error
        self.scale = 1.0


def _attempt(slot: int, task, tr, task_id: str) -> Record:
    tr.task = task_id
    tr.top = []
    try:
        t0 = perf_counter()
        out = task.call(tr)
        wall = perf_counter() - t0
        call_spans = list(tr.top)
        task.check(tr, out)
    except Exception as exc:  # a failed task is counted, the run goes on
        return Record(slot, task, None, None, f"{task.kind}: {type(exc).__name__}: {exc}")
    if tr.enabled and task.replay is not None:
        try:
            task.replay(tr, call_spans, out)
        except Exception as exc:
            print(f"replay of {task.kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            tr.missing.add(f"replay:{task.kind}")
    return Record(slot, task, wall, out, None)


def _passes(tasks, seconds: float, tracers, probe) -> tuple[list[list[Record]], int]:
    """Whole passes, one per tracer in turn, until the next round would end past `seconds`."""
    records: list[list[Record]] = [[] for _ in tracers]
    rounds = 0
    start = perf_counter()
    before = probe.seconds()
    while True:
        r0 = perf_counter()
        for k, tr in enumerate(tracers):
            for i, task in enumerate(tasks):
                record = _attempt(i, task, tr, f"{rounds}.{i}")
                after = probe.seconds()
                record.scale = 2.0 * PROBE_SECONDS / (before + after)
                before = after
                records[k].append(record)
        rounds += 1
        now = perf_counter()
        if now - start + (now - r0) > seconds:
            return records, rounds


def _slot_walls(records, scaled: bool = True) -> list[tuple[object, float, object]]:
    """(task, median wall over its passes, an output) for each task of the pass that succeeded.

    The median keeps a hiccup of one repeat out of the task's time.
    """
    by_slot: dict[int, list] = {}
    for r in records:
        if r.error is None:
            by_slot.setdefault(r.slot, []).append(r)
    return [
        (rs[0].task, statistics.median(r.wall * (r.scale if scaled else 1.0) for r in rs), rs[0].out)
        for rs in by_slot.values()
    ]


def _end_to_end(records, passes: int, setup_times, scaled: bool = True) -> tuple[dict, dict, list[str]]:
    slots = _slot_walls(records, scaled)
    # every task counts once per pass, at its median time
    walls = sorted(wall for _, wall, _ in slots for _ in range(passes))
    tts = [wall * task.tts(out) for task, wall, out in slots if task.tts is not None]
    notes = []
    p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]
    beyond = sum(1 for w in walls if w > p90)
    if beyond < P90_MIN_BEYOND:
        notes.append(f"task_p90_s has only {beyond} tasks beyond it; treat it as indicative")
    values = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(task.work for task, _, _ in slots) / sum(wall for _, wall, _ in slots),
        "task_p50_s": statistics.median(walls),
        "task_p90_s": p90,
        "tts_s": statistics.median(tts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ok = sum(1 for r in records if r.error is None)
    samples = {
        "setup_s": len(setup_times),
        "work_per_s": ok,
        "task_p50_s": ok,
        "task_p90_s": ok,
        "tts_s": len(tts) * passes,
        "peak_rss_mb": 1,
    }
    return values, samples, notes


def _per_layer(tr, setup_counts, passes: int, untraced, traced) -> tuple[dict, dict]:
    selfs = tr.self_times()
    values = {}
    for name in SPAN_METRICS:
        in_passes, in_setup = selfs.get(name, (0.0, 0.0))
        values[f"{name}_s"] = in_setup + in_passes / passes
    for name in (*COUNT_METRICS, "sampling.active_coords", "sampling.coords"):
        values[name] = setup_counts[name] + (tr.counts[name] - setup_counts[name]) / passes
    coords = values.pop("sampling.coords")
    active = values.pop("sampling.active_coords")
    values["sampling.active_ratio"] = active / coords if coords else 0.0
    untraced_wall = sum(wall for _, wall, _ in _slot_walls(untraced))
    traced_wall = sum(wall for _, wall, _ in _slot_walls(traced))
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    values["trace.coverage"] = tr.replay_coverage()
    samples = {name: passes for name in values}
    return values, samples


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "bohrlift" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'bohrlift'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_probe:
        return _setup_probe(args)

    import workloads
    from tracing import OFF, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    setup_times, setup_unscaled = ([], []) if args.trace else _setup_times(args, probe)

    tr = Tracer() if args.trace else OFF
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tasks = workloads.build(args.workload, args.seed, args.scale, tr, Path(tmp))
        if args.trace:
            setup_counts = tr.counts.copy()
            (untraced, traced), passes = _passes(tasks, args.seconds, [OFF, tr], probe)
            records = untraced + traced
        else:
            (records,), passes = _passes(tasks, args.seconds, [OFF], probe)

    failures = [r.error for r in records if r.error is not None]
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    if len(failures) == len(records):
        print("error: every task failed", file=sys.stderr)
        return 1
    if not args.trace and not any(r.error is None and r.task.tts is not None for r in records):
        print("error: every headline task failed, so tts_s has no value", file=sys.stderr)
        return 1
    if args.trace:
        values, samples = _per_layer(tr, setup_counts, passes, untraced, traced)
        units, notes = PER_LAYER, []
        missing = sorted({f"{name}_s" for name in tr.missing if not name.startswith("replay:")})
        for name in missing:
            values.pop(name, None)
        if tr.missing:
            notes.append(f"missing: {sorted(tr.missing)}")
    else:
        values, samples, notes = _end_to_end(records, passes, setup_times)
        unscaled, _, _ = _end_to_end(records, passes, setup_unscaled, scaled=False)
        notes.append("unscaled " + " ".join(f"{name}={value:.6g}" for name, value in unscaled.items()))
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes x {len(tasks)} tasks, {len(failures)} failed of {len(records)}")
    print(f"failed_frac {len(failures) / len(records):.6g}")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]} n={samples[name]}")
    for note in notes:
        print(f"note: {note}")
    print("provenance " + json.dumps(_provenance(args, passes, len(tasks), samples)))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
