"""Command-line front end.

`@_command(name, *options)` on a handler declares a subcommand once: it
registers the handler in `_HANDLERS` and builds the click command from
the options, with the docstring as help.  Its callback passes every
option but --out and --format to `run` as ExperimentSpec params; `run`
does the work, writes the result atomically (temp file + rename) and
returns the exit status: 0 on success, 2 on any validation problem (bad
flags, unreadable or malformed input), 3 when a numerical check fails, 1
on an unexpected error (traceback on stderr) or on a non-finite result
(one line naming the field).  Polynomials are written as one compact
JSON line (`serialize.dumps`); `_emit` writes result payloads as
indented JSON or CSV tables with fixed columns; seeds default to 0 and
are echoed in JSON estimates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np

from .analysis import (
    c0_style_family,
    cayley,
    cayley_inv,
    hilbert_criterion,
    stolz_ratio,
    unit_direction_family,
)
from .errors import EstimatorInconsistencyError, SieveCapError
from .gallery import DEFAULT_SIGMA, GALLERY, gallery
from .norms import (
    check_count,
    norm_h2_exact,
    norm_hinf_grid,
    norm_hp_mc,
    vertical_mean,
    vertical_sup,
)
from .partial_sums import abel_identity_check, log_bound_experiment
from .poisson import RadiusVector, contraction_check, poisson_convolve_exact, poisson_convolve_numeric
from .sampling import SamplerConfig, VALID_SCHEMES
from .serialize import dumps, loads_dirichlet, loads_power, power_to_dict
from .series import bohr_lift, bohr_transform, max_coeff_gap
from .translations import eps_norm_profile, translate

ABEL_TOLERANCE = 1e-12
CAYLEY_TOLERANCE = 1e-12
NUMERIC_POISSON_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully-parsed request: which experiment, its parameters, where to write."""

    subcommand: str
    params: dict = field(default_factory=dict)
    output_path: str | None = None
    fmt: str = "json"


class _NonFiniteResult(Exception):
    """A result holds inf or NaN, which JSON cannot carry; the library is at fault."""

    def __init__(self, field: str):
        super().__init__(f"non-finite value in result field {field!r}")


def _non_finite_field(obj, path: str = "") -> str | None:
    """Path of the first inf or NaN float inside a JSON-ready object, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path or "<result>"
    if isinstance(obj, dict):
        children = ((f"{path}.{key}" if path else str(key), value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for child_path, value in children:
        found = _non_finite_field(value, child_path)
        if found is not None:
            return found
    return None


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:
        field = _non_finite_field(obj)
        if field is None:
            raise
        raise _NonFiniteResult(field) from None


def _emit(spec: ExperimentSpec, payload, rows: list[dict], columns: list[str]) -> str:
    """JSON of `payload`, or for fmt "csv" the `columns` of `rows`; refuses inf and NaN."""
    if spec.fmt != "csv":
        return _json_text(payload)
    table = [{column: row[column] for column in columns} for row in rows]
    field = _non_finite_field(table)
    if field is not None:
        raise _NonFiniteResult(field)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(row.values() for row in table)
    return buf.getvalue()


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        click.echo(text, nl=False)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse p from {text!r}") from exc
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or 'inf', got {p}")
    return p


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse float list from {text!r}") from exc


def _sampler(params: dict) -> SamplerConfig:
    return SamplerConfig(params["samples"], params["seed"], params["scheme"])


def _load_dirichlet(params: dict):
    path = params.get("input_path")
    name = params.get("gallery_name")
    if path and name:
        raise ValueError("give either --in or --gallery, not both")
    if path:
        return loads_dirichlet(Path(path).read_text())
    if name:
        return gallery(
            name,
            params.get("size", 8),
            seed=params.get("seed", 0),
            sigma=params.get("sigma", DEFAULT_SIGMA),
        )
    raise ValueError("an input is required: --in FILE or --gallery NAME")


def _load_power(params: dict):
    path = params.get("input_path")
    if not path:
        raise ValueError("an input is required: --in FILE")
    return loads_power(Path(path).read_text())


_HANDLERS: dict = {}


@click.group()
def main():
    """Dirichlet-polynomial experiments on the polytorus."""


# a click Option keeps no state between parses, so one instance serves every command listing it
_OUT = click.Option(["--out", "output_path"], type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout (atomic).")
_INPUT = [
    click.Option(["--in", "input_path"], type=click.Path(exists=False, dir_okay=False), default=None, help="Input polynomial (JSON)."),
    click.Option(["--gallery", "gallery_name"], default=None, help="Use a gallery polynomial instead of --in."),
    click.Option(["--size"], default=8, show_default=True, help="Gallery size parameter."),
    click.Option(["--sigma"], default=DEFAULT_SIGMA, show_default=True, help="Gallery zeta_shift exponent."),
]
_GALLERY_SEED = click.Option(["--seed"], default=0, show_default=True, help="Gallery seed.")
_SAMPLING = [
    click.Option(["--samples"], default=10000, show_default=True, help="Monte Carlo sample count."),
    click.Option(["--seed"], default=0, show_default=True, help="RNG seed."),
    click.Option(["--scheme"], type=click.Choice(list(VALID_SCHEMES)), default="iid", show_default=True, help="Torus sampling scheme."),
]
_CSV_FORMAT = click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="csv", show_default=True)


def _command(name: str, *options: click.Option):
    """Register the decorated handler as subcommand `name`, taking `options` and --out."""

    def register(handler):
        def callback(output_path, fmt="json", **params):
            raise SystemExit(run(ExperimentSpec(name, params, output_path, fmt)))

        main.add_command(click.Command(name, callback=callback, params=[*options, _OUT], help=handler.__doc__))
        _HANDLERS[name] = handler
        return handler

    return register


@_command(
    "gallery",
    click.Option(["--name"], required=True, type=click.Choice(list(GALLERY))),
    click.Option(["--size"], default=8, show_default=True),
    click.Option(["--seed"], default=0, show_default=True),
    click.Option(["--sigma"], default=DEFAULT_SIGMA, show_default=True),
)
def _handle_gallery(spec: ExperimentSpec):
    """Emit a named example polynomial as JSON."""
    D = gallery(
        spec.params["name"],
        spec.params["size"],
        seed=spec.params["seed"],
        sigma=spec.params["sigma"],
    )
    return dumps(D) + "\n", 0


@_command("lift", *_INPUT, _GALLERY_SEED)
def _handle_lift(spec: ExperimentSpec):
    """Bohr lift: Dirichlet JSON in, power JSON out."""
    D = _load_dirichlet(spec.params)
    return dumps(bohr_lift(D)) + "\n", 0


@_command("transform", click.Option(["--in", "input_path"], required=True, type=click.Path(dir_okay=False)))
def _handle_transform(spec: ExperimentSpec):
    """Inverse lift: power JSON in, Dirichlet JSON out."""
    P = _load_power(spec.params)
    return dumps(bohr_transform(P)) + "\n", 0


@_command(
    "norm",
    *_INPUT,
    click.Option(["--p"], default="2", show_default=True, help="Exponent, a float or 'inf'."),
    click.Option(["--exact"], is_flag=True, help="Use the p = 2 closed form."),
    click.Option(["--grid"], default=64, show_default=True, help="Lattice points per coordinate for p = inf."),
    click.Option(["--R", "R"], type=float, default=None, help="Vertical-line half-length (switches to line estimators)."),
    click.Option(["--t-samples"], default=4097, show_default=True, help="Vertical-line node count."),
    *_SAMPLING,
)
def _handle_norm(spec: ExperimentSpec):
    """Estimate a Hardy norm; emits a NormEstimate JSON object."""
    params = spec.params
    D = _load_dirichlet(params)
    p = _parse_p(params["p"])
    if params["exact"]:
        if p != 2.0:
            raise ValueError("--exact computes the p = 2 closed form; drop it for other p")
        est = norm_h2_exact(D)
    elif math.isinf(p):
        if params.get("R") is not None:
            est = vertical_sup(D, params["R"], params["t_samples"])
        else:
            est = norm_hinf_grid(D, params["grid"])
    elif params.get("R") is not None:
        est = vertical_mean(D, p, params["R"], params["t_samples"])
    else:
        est = norm_hp_mc(D, p, _sampler(params))
    return _json_text(est.to_dict()), 0


@_command(
    "translate",
    *_INPUT,
    click.Option(["--z"], required=True, help="Translation offset, e.g. '0.5' or '0.1+2j'."),
    _GALLERY_SEED,
)
def _handle_translate(spec: ExperimentSpec):
    """Translate: multiply the coefficient at n by n^{-z}."""
    D = _load_dirichlet(spec.params)
    try:
        z = complex(spec.params["z"].replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse --z from {spec.params['z']!r}") from exc
    return dumps(translate(D, z)) + "\n", 0


@_command(
    "eps-profile",
    *_INPUT,
    click.Option(["--p"], default="2", show_default=True),
    click.Option(["--eps"], default=None, help="Comma-separated eps grid (default: geometric 1 .. 2^-20)."),
    *_SAMPLING,
    _CSV_FORMAT,
)
def _handle_eps_profile(spec: ExperimentSpec):
    """Norm profile of the real translates D_eps (CSV: eps, value, std_error)."""
    params = spec.params
    D = _load_dirichlet(params)
    p = _parse_p(params["p"])
    if math.isinf(p):
        raise ValueError("eps-profile needs a finite p")
    eps_grid = _parse_float_list(params["eps"]) if params.get("eps") else None
    rows = eps_norm_profile(D, p, eps_grid, _sampler(params))
    payload = [{"eps": e, **est.to_dict()} for e, est in rows]
    return _emit(spec, payload, payload, ["eps", "value", "std_error"]), 0


@_command(
    "poisson",
    click.Option(["--in", "input_path"], required=True, type=click.Path(dir_okay=False), help="Power polynomial (JSON)."),
    click.Option(["--radii"], required=True, help="Comma-separated radii in [0, 1)."),
    click.Option(["--p"], default="2", show_default=True, help="Exponent for the contraction check."),
    click.Option(["--grid"], type=int, default=None, help="Also run the quadrature path at this node count and report the gap."),
    *_SAMPLING,
)
def _handle_poisson(spec: ExperimentSpec):
    """Radial smoothing: convolved polynomial plus the contraction check."""
    params = spec.params
    P = _load_power(params)
    radii = _parse_float_list(params["radii"])
    r = RadiusVector(radii)
    smoothed = poisson_convolve_exact(P, r)
    p = _parse_p(params["p"])
    lhs, rhs = contraction_check(P, r, p, _sampler(params))
    combined = math.hypot(lhs.std_error, rhs.std_error)
    ok = lhs.value <= rhs.value + 3.0 * combined + 1e-12
    payload = {
        "convolved": power_to_dict(smoothed),
        "contraction": {"lhs": lhs.to_dict(), "rhs": rhs.to_dict(), "ok": ok},
    }
    code = 0 if ok else 3
    if params.get("grid") is not None:
        numeric = poisson_convolve_numeric(P, r, params["grid"])
        gap = max_coeff_gap(smoothed, numeric)
        payload["numeric_max_gap"] = gap
        if gap > NUMERIC_POISSON_TOLERANCE:
            code = 3
    return _json_text(payload), code


@_command(
    "log-bound",
    click.Option(["--family"], required=True, type=click.Choice(list(GALLERY))),
    click.Option(["--N", "n_max"], default=4096, show_default=True, help="Largest truncation point (sweep doubles from 4)."),
    click.Option(["--p"], default="inf", show_default=True),
    click.Option(["--t-samples"], default=8193, show_default=True),
    click.Option(["--sigma"], default=DEFAULT_SIGMA, show_default=True),
    *_SAMPLING,
    _CSV_FORMAT,
)
def _handle_log_bound(spec: ExperimentSpec):
    """Truncation-ratio sweep ||S_N D|| / ||D|| against log N."""
    params = spec.params
    name = params["family"]
    p = _parse_p(params["p"])
    n_max = params["n_max"]
    Ns = []
    N = 4
    while N <= n_max:
        Ns.append(N)
        N *= 2
    if not Ns:
        raise ValueError("--N must be at least 4")
    seed = params["seed"]
    sigma = params["sigma"]
    rows = log_bound_experiment(
        lambda size: gallery(name, size, seed=seed, sigma=sigma),
        p,
        Ns,
        _sampler(params),
        t_samples=params["t_samples"],
    )
    # p is the input exponent, not a result: an infinite one is written "inf"
    payload = [{**asdict(row), "p": "inf" if math.isinf(row.p) else row.p} for row in rows]
    return _emit(spec, payload, payload, ["N", "ratio", "ratio_over_log", "p", "method", "std_error"]), 0


@_command(
    "abel-check",
    *_INPUT,
    click.Option(["--N", "n_start"], required=True, type=int, help="Block start (1 < N < M)."),
    click.Option(["--M", "m_end"], required=True, type=int, help="Block end (M <= max index)."),
    click.Option(["--eps", "eps_value"], required=True, type=float, help="Damping exponent eps > 0."),
    _GALLERY_SEED,
)
def _handle_abel_check(spec: ExperimentSpec):
    """Summation-by-parts identity check; exits 3 when the gap exceeds 1e-12."""
    params = spec.params
    D = _load_dirichlet(params)
    _, _, gap = abel_identity_check(D, params["n_start"], params["m_end"], params["eps_value"])
    ok = gap <= ABEL_TOLERANCE
    payload = {"max_gap_rel": gap, "tolerance": ABEL_TOLERANCE, "ok": ok}
    return _json_text(payload), 0 if ok else 3


# each criterion family, built from --size
_CRITERION_FAMILIES = {
    "unit-directions": lambda size: unit_direction_family(None),
    "unit-directions-capped": unit_direction_family,
    "c0": c0_style_family,
}


@_command(
    "criterion",
    click.Option(["--family"], required=True, type=click.Choice(list(_CRITERION_FAMILIES))),
    click.Option(["--size"], default=5, show_default=True, help="Cap (capped family) or dimension (c0)."),
    click.Option(["--p"], default="2", show_default=True),
    click.Option(["--m-max"], default=10, show_default=True),
    click.Option(["--grid"], default=16, show_default=True, help="Lattice points per coordinate for p = inf."),
    *_SAMPLING,
    click.Option(["--format", "fmt"], type=click.Choice(["json", "csv"]), default="json", show_default=True),
)
def _handle_criterion(spec: ExperimentSpec):
    """Restriction-norm membership probe over m = 1..m_max."""
    params = spec.params
    make_family = _CRITERION_FAMILIES.get(params["family"])
    if make_family is None:
        raise ValueError(f"unknown family {params['family']!r}; choose from {list(_CRITERION_FAMILIES)}")
    p = _parse_p(params["p"])
    report = hilbert_criterion(
        make_family(params["size"]),
        p,
        params["m_max"],
        _sampler(params),
        grid_per_dim=params["grid"],
    )
    payload = report.to_dict()
    return _emit(spec, payload, payload["per_m"], ["m", "value", "std_error", "method"]), 0


@_command(
    "cayley-check",
    click.Option(["--trials"], default=10000, show_default=True),
    click.Option(["--seed"], default=0, show_default=True),
)
def _handle_cayley_check(spec: ExperimentSpec):
    """Disc/half-plane round trips and the Stolz-ratio identity; exits 3 past 1e-12."""
    params = spec.params
    rng = np.random.default_rng(params["seed"])
    trials = check_count(params["trials"], "trials", 1)
    worst_round = 0.0
    for _ in range(trials):
        radius = math.sqrt(rng.uniform()) * 0.999
        phase = rng.uniform(0.0, 2.0 * math.pi)
        z = radius * complex(math.cos(phase), math.sin(phase))
        worst_round = max(worst_round, abs(cayley_inv(cayley(z)) - z))
        s = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        worst_round = max(worst_round, abs(cayley(cayley_inv(s)) - s) / abs(s))
    worst_stolz = 0.0
    for eps in np.linspace(0.02, 2.0, 100):
        for t in np.linspace(-10.0, 10.0, 100):
            lhs, rhs = stolz_ratio(float(eps), float(t))
            worst_stolz = max(worst_stolz, abs(lhs - rhs))
    ok = worst_round <= CAYLEY_TOLERANCE and worst_stolz <= CAYLEY_TOLERANCE
    payload = {
        "roundtrip_max_gap": worst_round,
        "stolz_max_gap": worst_stolz,
        "tolerance": CAYLEY_TOLERANCE,
        "trials": trials,
        "seed": params["seed"],
        "ok": ok,
    }
    return _json_text(payload), 0 if ok else 3


def run(spec: ExperimentSpec) -> int:
    """Execute a parsed experiment; returns the process exit status.

    0 = success, 2 = validation problem, 3 = a numerical check failed,
    1 = an unexpected error, reported with its traceback on stderr, or
    a non-finite result, reported in one line naming the field
    (nothing is written then).  Output lands at spec.output_path
    (atomically) or on stdout.
    """
    handler = _HANDLERS.get(spec.subcommand)
    if handler is None:
        click.echo(f"error: unknown subcommand {spec.subcommand!r}", err=True)
        return 2
    try:
        # overflow shows up as a non-finite result, reported below by field
        with np.errstate(all="ignore"):
            text, code = handler(spec)
        _write_output(spec.output_path, text)
        return code
    except _NonFiniteResult as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except EstimatorInconsistencyError as exc:
        click.echo(f"numerical check failed: {exc}", err=True)
        return 3
    except (ValueError, TypeError, OverflowError, SieveCapError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception:
        click.echo(traceback.format_exc(), err=True, nl=False)
        return 1


if __name__ == "__main__":
    main()
