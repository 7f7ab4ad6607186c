"""The experiment runner behind the command line, plus one end-to-end call."""

import csv
import json
import math
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

from bohrlift import CoeffSpace, DirichletPoly, bohr_lift, dumps, loads_dirichlet, loads_power
from bohrlift import cli
from bohrlift.cli import ExperimentSpec, run
from bohrlift.errors import SieveCapError
from bohrlift.primes import SIEVE_CAP_ENV
from bohrlift.serialize import power_from_dict, power_to_dict


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


def _c3_linf():
    rng = np.random.default_rng(11)
    ns = [1, 4999, *rng.choice(np.arange(2, 5000), size=600, replace=False).tolist()]  # 4999 is the 669th prime
    values = rng.standard_normal((len(ns), 3)) + 1j * rng.standard_normal((len(ns), 3))
    values[1, 0] = complex(-0.0, 5e-324)
    return DirichletPoly(dict(zip(ns, values)), CoeffSpace(3, "linf"))


@pytest.mark.parametrize("source", ["random_unimodular 3000", "C^3 linf"])
def test_gallery_lift_transform_chain_gives_back_the_document_byte_for_byte(tmp_path, source):
    d, p, back = (tmp_path / name for name in ("D.json", "P.json", "D2.json"))
    if source == "C^3 linf":
        d.write_text(dumps(_c3_linf()) + "\n")
    else:
        assert run_spec("gallery", str(d), name="random_unimodular", size=3000, seed=1, sigma=0.51) == 0
    assert run_spec("lift", str(p), input_path=str(d)) == 0
    assert run_spec("transform", str(back), input_path=str(p)) == 0
    assert back.read_bytes() == d.read_bytes()
    D = loads_dirichlet(d.read_text())
    P = bohr_lift(D)
    assert p.read_text() == dumps(P) + "\n"
    # the encoder's tree holds each index's pair tuples; JSON gives them back as lists
    doc, loaded = power_to_dict(P), json.loads(dumps(P))
    assert loaded["space"] == doc["space"]
    assert loaded["coeffs"] == [{**entry, "pairs": [list(pair) for pair in entry["pairs"]]} for entry in doc["coeffs"]]
    assert power_from_dict(doc) == P


@pytest.mark.parametrize(
    "pairs", ["[[0, 1000000000000000000000000000000]]", "[[1000000000000000000, 1]]", "[[3, 1], [5, 63]]", "[[1000000, 63]]"]
)
def test_transform_refuses_an_index_past_the_64_bit_range(tmp_path, capsys, pairs):
    # a short sparse document can name a huge exponent or position; both are bad input, found
    # fast and reported in a line of the document's size
    src = tmp_path / "p.json"
    src.write_text(f'{{"space": {{"dim": 1, "norm": "l2"}}, "coeffs": [{{"pairs": {pairs}, "re": [1.0], "im": [0.0]}}]}}')
    assert run_spec("transform", None, input_path=str(src)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 200


def test_polynomials_travel_compact_and_results_stay_indented(tmp_path):
    D = DirichletPoly({1: 1.0, 2: 2.0, 6: 3.0, 97: -1.5j})
    src = tmp_path / "d.json"
    src.write_text(dumps(D))
    lifted = tmp_path / "p.json"
    assert run_spec("lift", str(lifted), input_path=str(src)) == 0
    text = lifted.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert loads_power(text) == bohr_lift(D)
    out = tmp_path / "n.json"
    code = run_spec(
        "norm", str(out), input_path=str(src), p="2", exact=True,
        grid=64, R=None, t_samples=4097, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert text.count("\n") > 1


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


def test_norm_grid_sup_of_a_late_prime(tmp_path):
    # 97 is the 25th prime, past the lattice cap of 8, but the lift uses one coordinate
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 97: 1.0})))
    out = tmp_path / "n.json"
    code = run_spec(
        "norm", str(out), input_path=str(src), p="inf", exact=False,
        grid=64, R=None, t_samples=4097, samples=100, seed=0, scheme="iid",
    )
    assert code == 0
    assert json.loads(out.read_text())["value"] == 2.0


def test_norm_refuses_a_seed_of_2_to_the_32():
    argv = ["norm", "--gallery", "zeta_shift", "--size", "5", "--p", "4", "--samples", "100", "--seed"]
    assert CliRunner().invoke(cli.main, argv + ["4294967295"]).exit_code == 0
    result = CliRunner().invoke(cli.main, argv + ["4294967296"])
    assert result.exit_code == 2 and "seed" in result.output


def test_norm_at_a_large_p_exits_0_with_a_finite_value():
    # sample norms near 10 overflow x^400; the power mean must not pass through it unscaled
    argv = ["norm", "--gallery", "zeta_shift", "--size", "50", "--p", "400", "--samples", "1000"]
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["method"] == "torus_mc" and math.isfinite(doc["value"]) and doc["std_error"] > 0.0


def test_norm_reports_its_sampling_scheme():
    argv = ["norm", "--gallery", "zeta_shift", "--size", "20", "--p", "4", "--samples", "500"]
    docs = {}
    for scheme in ("kronecker", "iid"):
        result = CliRunner().invoke(cli.main, argv + ["--scheme", scheme])
        assert result.exit_code == 0, result.output
        docs[scheme] = json.loads(result.output)
    assert docs["kronecker"]["scheme"] == "kronecker" and docs["iid"]["scheme"] == "iid"
    assert {k: v for k, v in docs["kronecker"].items() if k not in ("value", "std_error", "scheme")} == {
        k: v for k, v in docs["iid"].items() if k not in ("value", "std_error", "scheme")
    }


def test_kronecker_norm_of_a_huge_prime_exits_0(tmp_path, monkeypatch):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2**61 - 1: 1.0})))
    out = tmp_path / "n.json"
    params = dict(input_path=str(src), p="4", exact=False, grid=8, R=None, t_samples=9, samples=2000, seed=0)
    assert run_spec("norm", str(out), scheme="kronecker", **params) == 0
    assert json.loads(out.read_text())["method"] == "torus_mc"
    # the torus needs the prime's position, past the cap (lowered so the refusal is quick)
    monkeypatch.setenv(SIEVE_CAP_ENV, str(1 << 16))
    assert run_spec("norm", None, scheme="iid", **params) == 2


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


@pytest.mark.parametrize("trials", [0, -5])
def test_cayley_check_without_trials_exits_2(tmp_path, capsys, trials):
    # a self-test that runs no round trip checks nothing, so it is bad input, not "ok"
    out = tmp_path / "cayley.json"
    assert run_spec("cayley-check", str(out), trials=trials, seed=0) == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_criterion_with_a_negative_cap_exits_2(tmp_path, capsys):
    # a capped family of -1 directions has no meaning; it used to print a table of zeros
    out = tmp_path / "crit.json"
    code = run_spec(
        "criterion", str(out), family="unit-directions-capped", size=-1, p="2",
        m_max=3, grid=8, samples=100, seed=0, scheme="iid",
    )
    assert code == 2
    assert "cap must be at least 0" in capsys.readouterr().err
    assert not out.exists()


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



@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_exits_1_and_writes_nothing(tmp_path, capsys, fmt):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1e308, 2: 1e308})))
    out = tmp_path / "prof.out"
    params = dict(input_path=str(src), p="2", eps="1,0.5", samples=100, seed=0, scheme="iid")
    for target in (None, str(out)):
        assert run_spec("eps-profile", target, fmt=fmt, **params) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value in result field '[0].value'\n"
    assert list(tmp_path.iterdir()) == [src]


def test_log_bound_writes_an_infinite_p_as_inf(tmp_path):
    params = dict(family="zeta_shift", n_max=16, p="inf", t_samples=129, sigma=0.51, samples=100, seed=0, scheme="iid")
    json_out, csv_out = tmp_path / "lb.json", tmp_path / "lb.csv"
    assert run_spec("log-bound", str(json_out), fmt="json", **params) == 0
    assert run_spec("log-bound", str(csv_out), fmt="csv", **params) == 0
    doc = json.loads(json_out.read_text())
    header, *rows = csv.reader(csv_out.read_text().splitlines())
    assert [row["p"] for row in doc] == ["inf"] * 3
    assert [[str(row[column]) for column in header] for row in doc] == rows


@pytest.mark.parametrize("p", ["2", "inf"])
def test_norm_on_an_infinite_line_exits_2(tmp_path, capsys, p):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2: 1.0})))
    code = run_spec(
        "norm", None, input_path=str(src), p=p, exact=False,
        grid=8, R=math.inf, t_samples=9, samples=10, seed=0, scheme="iid",
    )
    assert code == 2
    assert "R must be finite and positive" in capsys.readouterr().err


def test_norm_on_a_line_records_its_half_length(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(dumps(DirichletPoly({1: 1.0, 2: 1.0})))
    out = tmp_path / "n.json"
    code = run_spec(
        "norm", str(out), input_path=str(src), p="inf", exact=False,
        grid=8, R=25.0, t_samples=101, samples=10, seed=0, scheme="iid",
    )
    assert code == 0
    assert json.loads(out.read_text()) == {
        "value": 2.0, "method": "vertical_sup", "std_error": 0.0, "samples": 101, "seed": 0, "R": 25.0,
    }


def test_criterion_unknown_family_exits_2(capsys):
    code = run_spec("criterion", family="bogus", size=3, p="2", m_max=2, grid=8, samples=10, seed=0, scheme="iid")
    assert code == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err
    for name in ("unit-directions", "unit-directions-capped", "c0"):
        assert repr(name) in err

# -- the click surface ----------------------------------------------------------
# One row per option: (name, opts, default, required, is_flag, type, choices,
# help, show_default).  A required option's default reads None: click
# versions differ in how they mark an unset default.

GALLERY_NAMES = ("c0", "zeta_shift", "random_pm1", "random_unimodular")
OUT = ("output_path", ("--out",), None, False, False, "file", None, "Write here instead of stdout (atomic).", None)
INPUT = {
    ("input_path", ("--in",), None, False, False, "file", None, "Input polynomial (JSON).", None),
    ("gallery_name", ("--gallery",), None, False, False, "text", None, "Use a gallery polynomial instead of --in.", None),
    ("size", ("--size",), 8, False, False, "integer", None, "Gallery size parameter.", True),
    ("sigma", ("--sigma",), 0.51, False, False, "float", None, "Gallery zeta_shift exponent.", True),
}
GALLERY_SEED = ("seed", ("--seed",), 0, False, False, "integer", None, "Gallery seed.", True)
SAMPLING = {
    ("samples", ("--samples",), 10000, False, False, "integer", None, "Monte Carlo sample count.", True),
    ("seed", ("--seed",), 0, False, False, "integer", None, "RNG seed.", True),
    ("scheme", ("--scheme",), "iid", False, False, "choice", ("iid", "kronecker"), "Torus sampling scheme.", True),
}


def fmt_row(default, choices):
    return ("fmt", ("--format",), default, False, False, "choice", choices, None, True)


SURFACE = {
    "gallery": ("Emit a named example polynomial as JSON.", {
        ("name", ("--name",), None, True, False, "choice", GALLERY_NAMES, None, None),
        ("size", ("--size",), 8, False, False, "integer", None, None, True),
        ("seed", ("--seed",), 0, False, False, "integer", None, None, True),
        ("sigma", ("--sigma",), 0.51, False, False, "float", None, None, True),
        OUT,
    }),
    "lift": ("Bohr lift: Dirichlet JSON in, power JSON out.", INPUT | {GALLERY_SEED, OUT}),
    "transform": ("Inverse lift: power JSON in, Dirichlet JSON out.", {
        ("input_path", ("--in",), None, True, False, "file", None, None, None),
        OUT,
    }),
    "norm": ("Estimate a Hardy norm; emits a NormEstimate JSON object.", INPUT | SAMPLING | {
        ("p", ("--p",), "2", False, False, "text", None, "Exponent, a float or 'inf'.", True),
        ("exact", ("--exact",), False, False, True, "boolean", None, "Use the p = 2 closed form.", None),
        ("grid", ("--grid",), 64, False, False, "integer", None, "Lattice points per coordinate for p = inf.", True),
        ("R", ("--R",), None, False, False, "float", None, "Vertical-line half-length (switches to line estimators).", None),
        ("t_samples", ("--t-samples",), 4097, False, False, "integer", None, "Vertical-line node count.", True),
        OUT,
    }),
    "translate": ("Translate: multiply the coefficient at n by n^{-z}.", INPUT | {
        ("z", ("--z",), None, True, False, "text", None, "Translation offset, e.g. '0.5' or '0.1+2j'.", None),
        GALLERY_SEED,
        OUT,
    }),
    "eps-profile": ("Norm profile of the real translates D_eps (CSV: eps, value, std_error).", INPUT | SAMPLING | {
        ("p", ("--p",), "2", False, False, "text", None, None, True),
        ("eps", ("--eps",), None, False, False, "text", None, "Comma-separated eps grid (default: geometric 1 .. 2^-20).", None),
        fmt_row("csv", ("csv", "json")),
        OUT,
    }),
    "poisson": ("Radial smoothing: convolved polynomial plus the contraction check.", SAMPLING | {
        ("input_path", ("--in",), None, True, False, "file", None, "Power polynomial (JSON).", None),
        ("radii", ("--radii",), None, True, False, "text", None, "Comma-separated radii in [0, 1).", None),
        ("p", ("--p",), "2", False, False, "text", None, "Exponent for the contraction check.", True),
        ("grid", ("--grid",), None, False, False, "integer", None, "Also run the quadrature path at this node count and report the gap.", None),
        OUT,
    }),
    "log-bound": ("Truncation-ratio sweep ||S_N D|| / ||D|| against log N.", SAMPLING | {
        ("family", ("--family",), None, True, False, "choice", GALLERY_NAMES, None, None),
        ("n_max", ("--N",), 4096, False, False, "integer", None, "Largest truncation point (sweep doubles from 4).", True),
        ("p", ("--p",), "inf", False, False, "text", None, None, True),
        ("t_samples", ("--t-samples",), 8193, False, False, "integer", None, None, True),
        ("sigma", ("--sigma",), 0.51, False, False, "float", None, None, True),
        fmt_row("csv", ("csv", "json")),
        OUT,
    }),
    "abel-check": ("Summation-by-parts identity check; exits 3 when the gap exceeds 1e-12.", INPUT | {
        ("n_start", ("--N",), None, True, False, "integer", None, "Block start (1 < N < M).", None),
        ("m_end", ("--M",), None, True, False, "integer", None, "Block end (M <= max index).", None),
        ("eps_value", ("--eps",), None, True, False, "float", None, "Damping exponent eps > 0.", None),
        GALLERY_SEED,
        OUT,
    }),
    "criterion": ("Restriction-norm membership probe over m = 1..m_max.", SAMPLING | {
        ("family", ("--family",), None, True, False, "choice", ("unit-directions", "unit-directions-capped", "c0"), None, None),
        ("size", ("--size",), 5, False, False, "integer", None, "Cap (capped family) or dimension (c0).", True),
        ("p", ("--p",), "2", False, False, "text", None, None, True),
        ("m_max", ("--m-max",), 10, False, False, "integer", None, None, True),
        ("grid", ("--grid",), 16, False, False, "integer", None, "Lattice points per coordinate for p = inf.", True),
        fmt_row("json", ("json", "csv")),
        OUT,
    }),
    "cayley-check": ("Disc/half-plane round trips and the Stolz-ratio identity; exits 3 past 1e-12.", {
        ("trials", ("--trials",), 10000, False, False, "integer", None, None, True),
        ("seed", ("--seed",), 0, False, False, "integer", None, None, True),
        OUT,
    }),
}


def surface_row(param):
    choices = tuple(param.type.choices) if isinstance(param.type, click.Choice) else None
    default = None if param.required else param.default
    return (
        param.name, tuple(param.opts), default, param.required, param.is_flag,
        param.type.name, choices, param.help, param.show_default,
    )


def test_every_subcommand_has_a_handler():
    assert set(cli.main.commands) == set(cli._HANDLERS) == set(SURFACE)


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_cli_surface(name):
    command = cli.main.commands[name]
    rows = [surface_row(param) for param in command.params]
    assert len(rows) == len(set(rows))
    assert (command.help, set(rows)) == SURFACE[name]


SAMPLING_DEFAULTS = dict(samples=10000, seed=0, scheme="iid")
INPUT_DEFAULTS = dict(input_path=None, gallery_name=None, size=8, sigma=0.51)

# argv after the subcommand, then the fmt and the exact params that reach the handler
CLICK_CASES = {
    "gallery": (["--name", "c0"], "json", dict(name="c0", size=8, seed=0, sigma=0.51)),
    "lift": ([], "json", dict(INPUT_DEFAULTS, seed=0)),
    "transform": (["--in", "p.json"], "json", dict(input_path="p.json")),
    "norm": ([], "json", dict(
        INPUT_DEFAULTS, p="2", exact=False, grid=64, R=None, t_samples=4097, **SAMPLING_DEFAULTS,
    )),
    "translate": (["--z", "1"], "json", dict(INPUT_DEFAULTS, z="1", seed=0)),
    "eps-profile": ([], "csv", dict(INPUT_DEFAULTS, p="2", eps=None, **SAMPLING_DEFAULTS)),
    "poisson": (["--in", "p.json", "--radii", "0.5"], "json", dict(
        input_path="p.json", radii="0.5", p="2", grid=None, **SAMPLING_DEFAULTS,
    )),
    "log-bound": (["--family", "zeta_shift"], "csv", dict(
        family="zeta_shift", n_max=4096, p="inf", t_samples=8193, sigma=0.51, **SAMPLING_DEFAULTS,
    )),
    "abel-check": (["--N", "5", "--M", "15", "--eps", "0.3"], "json", dict(
        INPUT_DEFAULTS, n_start=5, m_end=15, eps_value=0.3, seed=0,
    )),
    "criterion": (["--family", "c0"], "json", dict(
        family="c0", size=5, p="2", m_max=10, grid=16, **SAMPLING_DEFAULTS,
    )),
    "cayley-check": ([], "json", dict(trials=10000, seed=0)),
}

# the params perfbench's lift_roundtrip workload hands to cli.run directly
PERFBENCH_KEYS = {
    "gallery": {"name", "size", "seed", "sigma"},
    "lift": {"input_path", "gallery_name", "size", "sigma", "seed"},
    "transform": {"input_path"},
}


def test_click_cases_cover_every_subcommand():
    assert set(CLICK_CASES) == set(SURFACE)


@pytest.mark.parametrize("name", sorted(CLICK_CASES))
def test_click_path_builds_the_spec(monkeypatch, name):
    argv, fmt, params = CLICK_CASES[name]
    seen = []
    monkeypatch.setattr(cli, "run", lambda spec: seen.append(spec) or 0)
    result = CliRunner().invoke(cli.main, [name, *argv, "--out", "o.json"])
    assert result.exit_code == 0, result.output
    assert seen == [ExperimentSpec(name, params, "o.json", fmt)]
    if name in PERFBENCH_KEYS:
        assert set(params) == PERFBENCH_KEYS[name]


def test_click_path_passes_format_and_exit_code(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda spec: seen.append(spec) or 3)
    result = CliRunner().invoke(cli.main, ["criterion", "--family", "c0", "--format", "csv"])
    assert result.exit_code == 3
    assert seen[0].fmt == "csv" and seen[0].output_path is None
