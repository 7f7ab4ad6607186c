"""The benchmark's own tests: a tiny size of every workload.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("series.evals", "norms.lattice_points", "sampling.angle_bytes", "serialize.bytes", "primes.calls")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    out = run(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), lines


def assert_metrics(res: dict, lines: list[str], spec_key: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and f" {unit} n=" in line for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    res, lines = result(workload, 1, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(res, lines, "end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    assert provenance["seed"] == 1 and provenance["blas_threads"] >= 1 and provenance["samples"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly_for_a_seed(workload):
    first, lines = result(workload, 3, 1)
    second, _ = result(workload, 3, 1)
    assert first["correct"] and second["correct"]
    assert_metrics(first, lines, "per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_inputs_not_sizes(workload, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracing
        import workloads
    finally:
        del sys.path[:2]

    def outputs(seed: int):
        tasks = workloads.build(workload, seed, "tiny", tracing.OFF, tmp_path)
        outs = []
        for task in tasks:
            out = task.call(tracing.OFF)
            # a chain returns the path of its result, the same for every seed
            outs.append(Path(out).read_text() if isinstance(out, str) else out)
        return [(t.kind, t.work) for t in tasks], outs

    sizes_a, outs_a = outputs(1)
    sizes_b, outs_b = outputs(2)
    assert sizes_a == sizes_b
    assert any(repr(a) != repr(b) for a, b in zip(outs_a, outs_b))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
