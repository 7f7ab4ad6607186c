"""The experiment runner behind the command line, plus one end-to-end call."""

import csv
import json
import math
import subprocess
import sys

import pytest

from bohrlift import DirichletPoly, bohr_lift, dumps, loads_dirichlet, loads_power
from bohrlift import cli
from bohrlift.cli import ExperimentSpec, run
from bohrlift.errors import SieveCapError


def run_spec(sub, out=None, fmt="json", **params):
    return run(ExperimentSpec(sub, params, out, fmt))


def test_gallery_to_file(tmp_path):
    out = tmp_path / "d.json"
    code = run_spec("gallery", str(out), name="zeta_shift", size=8, seed=0, sigma=0.51)
    assert code == 0
    D = loads_dirichlet(out.read_text())
    assert len(D) == 8


def test_lift_and_transform_roundtrip(tmp_path):
    D = DirichletPoly({1: 1.0, 2: 2.0, 6: 3.0})
    src = tmp_path / "d.json"
    src.write_text(dumps(D))
    lifted = tmp_path / "p.json"
    assert run_spec("lift", str(lifted), input_path=str(src)) == 0
    P = loads_power(lifted.read_text())
    assert P == bohr_lift(D)
    back = tmp_path / "d2.json"
    assert run_spec("transform", str(back), input_path=str(lifted)) == 0
    assert loads_dirichlet(back.read_text()) == D


def test_norm_exact(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 3.0, 4: 4.0})))
    out = tmp_path / "n.json"
    code = run_spec(
        "norm", str(out), input_path=str(src), p="2", exact=True,
        grid=64, R=None, t_samples=4097, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 5.0
    assert doc["method"] == "exact_parseval"
    assert set(doc) == {"value", "method", "std_error", "samples", "seed"}


def test_norm_grid_sup(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2: 1.0})))
    out = tmp_path / "n.json"
    code = run_spec(
        "norm", str(out), input_path=str(src), p="inf", exact=False,
        grid=64, R=None, t_samples=4097, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    assert json.loads(out.read_text())["value"] == 2.0


def test_norm_bad_p_exits_2(tmp_path, capsys):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0})))
    code = run_spec(
        "norm", None, input_path=str(src), p="0.3", exact=False,
        grid=8, R=None, t_samples=9, samples=10, seed=0, scheme="iid",
    )
    assert code == 2


def test_missing_input_exits_2():
    assert run_spec("lift", None) == 2
    assert run_spec("transform", None, input_path="/nonexistent/file.json") == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_spec("lift", None, input_path=str(bad)) == 2


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000)
    assert run_spec("lift", None, input_path=str(bad)) == 2
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_meaningless_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    for coeff in ('"n": true, "re": [1.0]', '"n": 1, "re": [NaN]'):
        bad.write_text(f'{{"space": {{"dim": 1, "norm": "l2"}}, "coeffs": [{{{coeff}, "im": [0.0]}}]}}')
        assert run_spec("lift", None, input_path=str(bad)) == 2


def test_unknown_subcommand_exits_2():
    assert run(ExperimentSpec("frobnicate", {}, None, "json")) == 2


def test_unexpected_error_exits_1_with_traceback(monkeypatch, capsys):
    def handler(exc):
        def handle(spec):
            raise exc
        return handle

    monkeypatch.setitem(cli._HANDLERS, "crash", handler(ZeroDivisionError("float division by zero")))
    monkeypatch.setitem(cli._HANDLERS, "sieve", handler(SieveCapError("sieve past its cap")))
    assert run(ExperimentSpec("crash", {}, None, "json")) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError: float division by zero" in err
    assert run(ExperimentSpec("sieve", {}, None, "json")) == 2
    assert capsys.readouterr().err == "error: sieve past its cap\n"


def test_translate(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2: 1.0})))
    out = tmp_path / "t.json"
    assert run_spec("translate", str(out), input_path=str(src), z="1") == 0
    D = loads_dirichlet(out.read_text())
    assert D[2] == pytest.approx(0.5)
    assert run_spec("translate", None, input_path=str(src), z="zzz") == 2


def test_eps_profile_csv(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2: 1.0})))
    out = tmp_path / "prof.csv"
    code = run_spec(
        "eps-profile", str(out), fmt="csv", input_path=str(src), p="2",
        eps="1.0,0.1", samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["eps", "value", "std_error"]
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(math.sqrt(1 + 0.25))


def test_poisson_payload(tmp_path):
    P = bohr_lift(DirichletPoly({1: 1.0, 2: 0.5, 6: 0.25}))
    src = tmp_path / "p.json"
    src.write_text(dumps(P))
    out = tmp_path / "out.json"
    code = run_spec(
        "poisson", str(out), input_path=str(src), radii="0.5,0.25",
        p="2", grid=64, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["contraction"]["ok"] is True
    assert doc["numeric_max_gap"] < 1e-9
    smoothed = loads_power(json.dumps(doc["convolved"]))
    assert len(smoothed) == 3


def test_abel_check(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({n: 1.0 for n in range(1, 40)})))
    out = tmp_path / "abel.json"
    code = run_spec(
        "abel-check", str(out), input_path=str(src), n_start=5, m_end=35, eps_value=0.5,
    )
    assert code == 0
    assert json.loads(out.read_text())["ok"] is True


def test_log_bound_csv(tmp_path):
    out = tmp_path / "lb.csv"
    code = run_spec(
        "log-bound", str(out), fmt="csv", family="zeta_shift", n_max=16, p="2",
        t_samples=129, sigma=0.51, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["N", "ratio", "ratio_over_log", "p", "method", "std_error"]
    assert [r[0] for r in rows[1:]] == ["4", "8", "16"]


def test_criterion_json(tmp_path):
    out = tmp_path / "crit.json"
    code = run_spec(
        "criterion", str(out), family="unit-directions-capped", size=3, p="2",
        m_max=6, grid=8, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "BOUNDED_SO_FAR"
    assert doc["per_m"][-1]["value"] == pytest.approx(math.sqrt(3.0))


def test_cayley_check(tmp_path):
    out = tmp_path / "cayley.json"
    code = run_spec("cayley-check", str(out), trials=200, seed=0)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["roundtrip_max_gap"] <= 1e-12


def test_stdout_when_no_out(capsys):
    code = run_spec("gallery", None, name="zeta_shift", size=3, seed=0, sigma=0.51)
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert len(doc["coeffs"]) == 3


def test_console_entry_point(tmp_path):
    # one end-to-end subprocess call through the installed script
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlift.cli", "gallery", "--name", "zeta_shift", "--size", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["coeffs"]) == 4


def test_cli_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlift.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("lift", "transform", "norm", "eps-profile", "poisson", "log-bound", "criterion"):
        assert name in proc.stdout


@pytest.mark.parametrize("flags", [dict(p="2", exact=True), dict(p="inf", exact=False), dict(p="4", exact=False)])
def test_non_finite_result_exits_1_and_writes_nothing(tmp_path, capsys, flags):
    # finite coefficients whose norms overflow: the result would read Infinity or NaN
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1e308, 2: 1e308})))
    out = tmp_path / "n.json"
    params = dict(input_path=str(src), grid=16, R=None, t_samples=9, samples=100, seed=0, scheme="iid")
    for target in (None, str(out)):
        assert run_spec("norm", target, **params, **flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value in result field 'value'\n"
    assert list(tmp_path.iterdir()) == [src]
