"""Command-line front end.

Every subcommand assembles an ExperimentSpec and hands it to `run`,
which does the work, writes the result atomically (temp file + rename)
and returns the exit status: 0 on success, 2 on any validation problem
(bad flags, unreadable or malformed input), 3 when a numerical check
fails, 1 on an unexpected error (traceback on stderr) or on a
non-finite JSON result (one line naming the field).  Results are JSON
objects or CSV tables with fixed columns; seeds always default to 0
and are echoed back in JSON estimates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import traceback
from dataclasses import dataclass, field
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
from .gallery import DEFAULT_SIGMA, gallery
from .norms import (
    norm_h2_exact,
    norm_hinf_grid,
    norm_hp_mc,
    vertical_mean,
    vertical_sup,
)
from .partial_sums import abel_identity_check, log_bound_experiment
from .poisson import RadiusVector, contraction_check, poisson_convolve_exact, poisson_convolve_numeric
from .sampling import SamplerConfig, VALID_SCHEMES
from .serialize import (
    dirichlet_to_dict,
    dumps,
    loads_dirichlet,
    loads_power,
    power_to_dict,
)
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
        raise _NonFiniteResult(f"non-finite value in result field {field!r}") from None


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
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


# -- handlers ------------------------------------------------------------------


def _handle_gallery(spec: ExperimentSpec):
    D = gallery(
        spec.params["name"],
        spec.params["size"],
        seed=spec.params["seed"],
        sigma=spec.params["sigma"],
    )
    return _json_text(dirichlet_to_dict(D)), 0


def _handle_lift(spec: ExperimentSpec):
    D = _load_dirichlet(spec.params)
    return _json_text(power_to_dict(bohr_lift(D))), 0


def _handle_transform(spec: ExperimentSpec):
    P = _load_power(spec.params)
    return _json_text(dirichlet_to_dict(bohr_transform(P))), 0


def _handle_norm(spec: ExperimentSpec):
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


def _handle_translate(spec: ExperimentSpec):
    D = _load_dirichlet(spec.params)
    try:
        z = complex(spec.params["z"].replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse --z from {spec.params['z']!r}") from exc
    return _json_text(dirichlet_to_dict(translate(D, z))), 0


def _handle_eps_profile(spec: ExperimentSpec):
    params = spec.params
    D = _load_dirichlet(params)
    p = _parse_p(params["p"])
    if math.isinf(p):
        raise ValueError("eps-profile needs a finite p")
    eps_grid = _parse_float_list(params["eps"]) if params.get("eps") else None
    rows = eps_norm_profile(D, p, eps_grid, _sampler(params))
    if spec.fmt == "json":
        payload = [{"eps": e, **est.to_dict()} for e, est in rows]
        return _json_text(payload), 0
    table = [[e, est.value, est.std_error] for e, est in rows]
    return _csv_text(["eps", "value", "std_error"], table), 0


def _handle_poisson(spec: ExperimentSpec):
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


def _handle_log_bound(spec: ExperimentSpec):
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
    table = [[row.N, row.ratio, row.ratio_over_log, row.p, row.method, row.std_error] for row in rows]
    if spec.fmt == "json":
        payload = [
            {
                "N": row.N,
                "ratio": row.ratio,
                "ratio_over_log": row.ratio_over_log,
                "p": row.p,
                "method": row.method,
                "std_error": row.std_error,
            }
            for row in rows
        ]
        return _json_text(payload), 0
    return _csv_text(["N", "ratio", "ratio_over_log", "p", "method", "std_error"], table), 0


def _handle_abel_check(spec: ExperimentSpec):
    params = spec.params
    D = _load_dirichlet(params)
    _, _, gap = abel_identity_check(D, params["n_start"], params["m_end"], params["eps_value"])
    ok = gap <= ABEL_TOLERANCE
    payload = {"max_gap_rel": gap, "tolerance": ABEL_TOLERANCE, "ok": ok}
    return _json_text(payload), 0 if ok else 3


def _handle_criterion(spec: ExperimentSpec):
    params = spec.params
    name = params["family"]
    size = params["size"]
    if name == "unit-directions":
        family = unit_direction_family(None)
    elif name == "unit-directions-capped":
        family = unit_direction_family(size)
    elif name == "c0":
        family = c0_style_family(size)
    else:
        raise ValueError(
            f"unknown family {name!r}; choose unit-directions, unit-directions-capped or c0"
        )
    p = _parse_p(params["p"])
    report = hilbert_criterion(
        family,
        p,
        params["m_max"],
        _sampler(params),
        grid_per_dim=params["grid"],
    )
    if spec.fmt == "csv":
        table = [[m, est.value, est.std_error, est.method] for m, est in report.per_m]
        return _csv_text(["m", "value", "std_error", "method"], table), 0
    return _json_text(report.to_dict()), 0


def _handle_cayley_check(spec: ExperimentSpec):
    params = spec.params
    rng = np.random.default_rng(params["seed"])
    trials = params["trials"]
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


_HANDLERS = {
    "gallery": _handle_gallery,
    "lift": _handle_lift,
    "transform": _handle_transform,
    "norm": _handle_norm,
    "translate": _handle_translate,
    "eps-profile": _handle_eps_profile,
    "poisson": _handle_poisson,
    "log-bound": _handle_log_bound,
    "abel-check": _handle_abel_check,
    "criterion": _handle_criterion,
    "cayley-check": _handle_cayley_check,
}


def run(spec: ExperimentSpec) -> int:
    """Execute a parsed experiment; returns the process exit status.

    0 = success, 2 = validation problem, 3 = a numerical check failed,
    1 = an unexpected error, reported with its traceback on stderr, or
    a non-finite JSON result, reported in one line naming the field
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


# -- click wiring ---------------------------------------------------------------


@click.group()
def main():
    """Dirichlet-polynomial experiments on the polytorus."""


def _spec_options(fn):
    fn = click.option("--out", "output_path", type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout (atomic).")(fn)
    return fn


def _input_options(fn):
    fn = click.option("--in", "input_path", type=click.Path(exists=False, dir_okay=False), default=None, help="Input polynomial (JSON).")(fn)
    fn = click.option("--gallery", "gallery_name", default=None, help="Use a gallery polynomial instead of --in.")(fn)
    fn = click.option("--size", default=8, show_default=True, help="Gallery size parameter.")(fn)
    fn = click.option("--sigma", default=DEFAULT_SIGMA, show_default=True, help="Gallery zeta_shift exponent.")(fn)
    return fn


def _sampling_options(fn):
    fn = click.option("--samples", default=10000, show_default=True, help="Monte Carlo sample count.")(fn)
    fn = click.option("--seed", default=0, show_default=True, help="RNG seed.")(fn)
    fn = click.option("--scheme", type=click.Choice(list(VALID_SCHEMES)), default="iid", show_default=True, help="Torus sampling scheme.")(fn)
    return fn


def _dispatch(subcommand: str, output_path, fmt: str = "json", **params):
    raise SystemExit(run(ExperimentSpec(subcommand, params, output_path, fmt)))


@main.command(name="gallery")
@click.option("--name", required=True, type=click.Choice(["c0", "zeta_shift", "random_pm1", "random_unimodular"]))
@click.option("--size", default=8, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--sigma", default=DEFAULT_SIGMA, show_default=True)
@_spec_options
def gallery_cmd(name, size, seed, sigma, output_path):
    """Emit a named example polynomial as JSON."""
    _dispatch("gallery", output_path, name=name, size=size, seed=seed, sigma=sigma)


@main.command()
@_input_options
@click.option("--seed", default=0, show_default=True, help="Gallery seed.")
@_spec_options
def lift(input_path, gallery_name, size, sigma, seed, output_path):
    """Bohr lift: Dirichlet JSON in, power JSON out."""
    _dispatch(
        "lift",
        output_path,
        input_path=input_path,
        gallery_name=gallery_name,
        size=size,
        sigma=sigma,
        seed=seed,
    )


@main.command()
@click.option("--in", "input_path", required=True, type=click.Path(dir_okay=False))
@_spec_options
def transform(input_path, output_path):
    """Inverse lift: power JSON in, Dirichlet JSON out."""
    _dispatch("transform", output_path, input_path=input_path)


@main.command()
@_input_options
@click.option("--p", default="2", show_default=True, help="Exponent, a float or 'inf'.")
@click.option("--exact", is_flag=True, help="Use the p = 2 closed form.")
@click.option("--grid", default=64, show_default=True, help="Lattice points per coordinate for p = inf.")
@click.option("--R", "R", type=float, default=None, help="Vertical-line half-length (switches to line estimators).")
@click.option("--t-samples", default=4097, show_default=True, help="Vertical-line node count.")
@_sampling_options
@_spec_options
def norm(input_path, gallery_name, size, sigma, p, exact, grid, R, t_samples, samples, seed, scheme, output_path):
    """Estimate a Hardy norm; emits a NormEstimate JSON object."""
    _dispatch(
        "norm",
        output_path,
        input_path=input_path,
        gallery_name=gallery_name,
        size=size,
        sigma=sigma,
        p=p,
        exact=exact,
        grid=grid,
        R=R,
        t_samples=t_samples,
        samples=samples,
        seed=seed,
        scheme=scheme,
    )


@main.command(name="translate")
@_input_options
@click.option("--z", required=True, help="Translation offset, e.g. '0.5' or '0.1+2j'.")
@click.option("--seed", default=0, show_default=True, help="Gallery seed.")
@_spec_options
def translate_cmd(input_path, gallery_name, size, sigma, z, seed, output_path):
    """Translate: multiply the coefficient at n by n^{-z}."""
    _dispatch(
        "translate",
        output_path,
        input_path=input_path,
        gallery_name=gallery_name,
        size=size,
        sigma=sigma,
        z=z,
        seed=seed,
    )


@main.command(name="eps-profile")
@_input_options
@click.option("--p", default="2", show_default=True)
@click.option("--eps", default=None, help="Comma-separated eps grid (default: geometric 1 .. 2^-20).")
@_sampling_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_spec_options
def eps_profile(input_path, gallery_name, size, sigma, p, eps, samples, seed, scheme, fmt, output_path):
    """Norm profile of the real translates D_eps (CSV: eps, value, std_error)."""
    _dispatch(
        "eps-profile",
        output_path,
        fmt,
        input_path=input_path,
        gallery_name=gallery_name,
        size=size,
        sigma=sigma,
        p=p,
        eps=eps,
        samples=samples,
        seed=seed,
        scheme=scheme,
    )


@main.command()
@click.option("--in", "input_path", required=True, type=click.Path(dir_okay=False), help="Power polynomial (JSON).")
@click.option("--radii", required=True, help="Comma-separated radii in [0, 1).")
@click.option("--p", default="2", show_default=True, help="Exponent for the contraction check.")
@click.option("--grid", type=int, default=None, help="Also run the quadrature path at this node count and report the gap.")
@_sampling_options
@_spec_options
def poisson(input_path, radii, p, grid, samples, seed, scheme, output_path):
    """Radial smoothing: convolved polynomial plus the contraction check."""
    _dispatch(
        "poisson",
        output_path,
        input_path=input_path,
        radii=radii,
        p=p,
        grid=grid,
        samples=samples,
        seed=seed,
        scheme=scheme,
    )


@main.command(name="log-bound")
@click.option("--family", required=True, type=click.Choice(["c0", "zeta_shift", "random_pm1", "random_unimodular"]))
@click.option("--N", "n_max", default=4096, show_default=True, help="Largest truncation point (sweep doubles from 4).")
@click.option("--p", default="inf", show_default=True)
@click.option("--t-samples", default=8193, show_default=True)
@click.option("--sigma", default=DEFAULT_SIGMA, show_default=True)
@_sampling_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_spec_options
def log_bound(family, n_max, p, t_samples, sigma, samples, seed, scheme, fmt, output_path):
    """Truncation-ratio sweep ||S_N D|| / ||D|| against log N."""
    _dispatch(
        "log-bound",
        output_path,
        fmt,
        family=family,
        n_max=n_max,
        p=p,
        t_samples=t_samples,
        sigma=sigma,
        samples=samples,
        seed=seed,
        scheme=scheme,
    )


@main.command(name="abel-check")
@_input_options
@click.option("--N", "n_start", required=True, type=int, help="Block start (1 < N < M).")
@click.option("--M", "m_end", required=True, type=int, help="Block end (M <= max index).")
@click.option("--eps", "eps_value", required=True, type=float, help="Damping exponent eps > 0.")
@click.option("--seed", default=0, show_default=True, help="Gallery seed.")
@_spec_options
def abel_check(input_path, gallery_name, size, sigma, n_start, m_end, eps_value, seed, output_path):
    """Summation-by-parts identity check; exits 3 when the gap exceeds 1e-12."""
    _dispatch(
        "abel-check",
        output_path,
        input_path=input_path,
        gallery_name=gallery_name,
        size=size,
        sigma=sigma,
        n_start=n_start,
        m_end=m_end,
        eps_value=eps_value,
        seed=seed,
    )


@main.command()
@click.option("--family", required=True, type=click.Choice(["unit-directions", "unit-directions-capped", "c0"]))
@click.option("--size", default=5, show_default=True, help="Cap (capped family) or dimension (c0).")
@click.option("--p", default="2", show_default=True)
@click.option("--m-max", default=10, show_default=True)
@click.option("--grid", default=16, show_default=True, help="Lattice points per coordinate for p = inf.")
@_sampling_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_spec_options
def criterion(family, size, p, m_max, grid, samples, seed, scheme, fmt, output_path):
    """Restriction-norm membership probe over m = 1..m_max."""
    _dispatch(
        "criterion",
        output_path,
        fmt,
        family=family,
        size=size,
        p=p,
        m_max=m_max,
        grid=grid,
        samples=samples,
        seed=seed,
        scheme=scheme,
    )


@main.command(name="cayley-check")
@click.option("--trials", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_spec_options
def cayley_check(trials, seed, output_path):
    """Disc/half-plane round trips and the Stolz-ratio identity; exits 3 past 1e-12."""
    _dispatch("cayley-check", output_path, trials=trials, seed=seed)


if __name__ == "__main__":
    main()
