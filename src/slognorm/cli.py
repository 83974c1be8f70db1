"""Command-line front end for the stochastic logarithmic norm toolkit.

Usage:
    slognorm lognorm MATRIX.json --p 2
    slognorm slognorm SYSTEM.json --method both --p 2 --l 2
    slognorm simulate SYSTEM.json --h 1e-4 --t-end 0.02 --paths 100000 --out traj.csv
    slognorm table1 --samples 100000
    slognorm examples --which pendulum --b 120

Matrix files are JSON objects {"rows": n, "cols": n, "data": [...]} with
row-major data whose entries are numbers (imaginary part 0) or [re, im]
pairs; system files are {"A": matrix, "B": [matrix, ...]} with optional
"name"/"source" metadata.  The --p flags accept 1, 2 or inf.

Machine-readable reports are printed as JSON on stdout; human-readable
summaries go to stderr.  Exit codes: 0 success (including mathematically
unstable verdicts), 2 input error, 3 numerical failure.  Every numeric
result carries an estimator or bound identifier.  Re-running an identical
invocation reproduces the report byte for byte, whatever the number of
cores the Monte Carlo blocks run on.  The SLOGNORM_SEED environment
variable overrides the default seed; an explicit --seed flag wins over
both.  Non-finite numbers are serialized as the strings "inf", "-inf",
"nan".
"""

from __future__ import annotations

import cmath
import json
import math
from contextlib import contextmanager

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .cases import (
    TABLE1_ANNOTATIONS,
    TABLE1_REFERENCE,
    agrees,
    nonnormal,
    pendulum,
    table1_row,
    table1_system,
)
from .matcore import EigenConvergenceError
from .lognorm import mu
from .slognorm import (
    BOUND_APPLICABILITY,
    McConfig,
    NuEstimate,
    SdeSystem,
    bounds_report,
    classify,
    default_h_sequence,
    nu_definitional,
    nu_direct,
)
from .sdesim import SimConfig, growth_rate, simulate_moments

__all__ = ["cli", "main"]


class InputError(click.ClickException):
    """A problem with user input (files, flags, preconditions): exit code 2."""

    exit_code = 2


class NumericalError(click.ClickException):
    """A numerical failure inside a computation: exit code 3."""

    exit_code = 3


@contextmanager
def _numeric_guard():
    """Map library exceptions onto the CLI exit-code contract."""
    try:
        yield
    except (EigenConvergenceError, np.linalg.LinAlgError) as exc:
        raise NumericalError(str(exc)) from exc
    except ValueError as exc:  # DimensionError is a ValueError
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from exc


def _is_number(value) -> bool:
    """Whether a parsed JSON value is an int or float; bool is an int subclass."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _entry_to_complex(entry, where: str) -> complex:
    if isinstance(entry, bool):
        raise InputError(f"{where}: expected a number or [re, im] pair, got a boolean")
    if _is_number(entry):
        parts = (entry, 0.0)
    elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        parts = entry
    else:
        raise InputError(f"{where}: expected a number or [re, im] pair, got {entry!r}")
    try:
        value = complex(*parts)
    except OverflowError:  # an integer beyond the binary64 range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise InputError(f"{where}: matrix entries must be finite (no NaN/Inf)")
    return value


def _matrix_from_obj(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise InputError(f"{where}: missing required field {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols)):
        raise InputError(f"{where}: rows/cols must be integers")
    if rows < 1 or cols < 1:
        raise InputError(f"{where}: matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list):
        raise InputError(f"{where}.data: expected a list of entries")
    if len(data) != rows * cols:
        raise InputError(
            f"{where}.data: expected {rows * cols} entries for {rows}x{cols}, got {len(data)}"
        )
    entries = [
        _entry_to_complex(entry, f"{where}.data[{i}]") for i, entry in enumerate(data)
    ]
    return np.array(entries, dtype=np.complex128).reshape(rows, cols)


def _load_system(path: str) -> tuple[SdeSystem, dict]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "A" not in obj:
        raise InputError(f"{path}: expected an object with an 'A' matrix")
    a = _matrix_from_obj(obj["A"], "A")
    raw_b = obj.get("B", [])
    if not isinstance(raw_b, list):
        raise InputError("B: expected a list of matrix objects")
    bs = tuple(_matrix_from_obj(b, f"B[{j}]") for j, b in enumerate(raw_b))
    try:
        system = SdeSystem(a, bs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    meta = {k: obj[k] for k in ("name", "source") if k in obj and isinstance(obj[k], str)}
    return system, meta


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _jsonable(value):
    """Recursively convert a report to JSON-safe types; non-finite floats
    become the strings "inf"/"-inf"/"nan" so reports stay parseable."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isfinite(f):
            return f
        if math.isnan(f):
            return "nan"
        return "inf" if f > 0 else "-inf"
    return str(value)


def _emit(results: dict, summary: list[str], warnings: list[str] | None = None,
          annotations: list[str] | None = None) -> None:
    """Print the running command's report on stdout and its summary on stderr.

    The invocation echo holds every parameter of the command in declaration
    order.
    """
    ctx = click.get_current_context()
    report = {
        "command": ctx.command.name,
        "version": __version__,
        "invocation": {param.name: ctx.params[param.name] for param in ctx.command.params},
        "results": results,
    }
    if annotations is not None:
        report["annotations"] = annotations
    report["warnings"] = warnings or []
    click.echo(json.dumps(_jsonable(report), indent=2))
    for line in summary:
        click.echo(line, err=True)


def _p_label(p) -> str:
    return "inf" if p == math.inf else str(int(p))


_METHOD_LABELS = {
    "monte_carlo": "Monte Carlo",
    "quadrature": "Gauss-Kronrod quadrature",
    "closed_form": "exact",
}


def _with_error(est: NuEstimate, digits: int) -> str:
    """``value +/- error (method)`` for the human-readable summaries."""
    return (f"{est.value:.{digits}g} +/- {est.std_error:.3g} "
            f"({_METHOD_LABELS[est.method]})")


def _estimate_payload(est: NuEstimate) -> dict:
    payload = {
        "identity": f"nu_p{_p_label(est.p)}_l{est.l}_{est.estimator}",
        "estimator": est.estimator,
        "method": est.method,
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "p": _p_label(est.p),
        "l": est.l,
    }
    if est.h_used is not None:
        payload["h_used"] = list(est.h_used)
        payload["bias_warning"] = est.bias_warning
    return payload


_SAMPLES_HELP = (
    "Monte Carlo samples{what}.  Without it an estimate for a one-channel "
    "system is an adaptive Gauss-Kronrod quadrature where the rule "
    "converges, and otherwise a Monte Carlo run whose sample count scales "
    "with dimension."
)
_SEED_OPTION = click.option(
    "--seed",
    type=int,
    default=42,
    show_default=True,
    envvar="SLOGNORM_SEED",
    help="Monte Carlo seed (SLOGNORM_SEED overrides the default; the flag wins).",
)
_ANTITHETIC_OPTION = click.option(
    "--antithetic/--no-antithetic",
    default=True,
    show_default=True,
    help="Pair each draw with its negation to cancel odd-order noise.",
)
_P_OPTION = click.option(
    "--p",
    type=click.Choice(["1", "2", "inf"]),
    default="2",
    show_default=True,
    help="Which induced norm to use.",
)
_L_OPTION = click.option(
    "--l",
    type=click.IntRange(min=1),
    default=2,
    show_default=True,
    help="Moment order l (mean-square stability is l=2).",
)


@click.group()
@click.version_option(__version__, prog_name="slognorm")
def cli() -> None:
    """Stochastic logarithmic norms, stability bounds, and SDE moment simulation."""


# ---------------------------------------------------------------------------
# lognorm
# ---------------------------------------------------------------------------


@cli.command(name="lognorm")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@_P_OPTION
def cmd_lognorm(matrix_file: str, p: str) -> None:
    """Classical logarithmic norm mu_p of a square matrix."""
    matrix = _matrix_from_obj(_load_json(matrix_file), "matrix")
    with _numeric_guard():
        value = mu(matrix, p)
    _emit(
        {"mu": {"identity": f"mu_p{p}_closed_form", "value": value, "p": p}},
        [f"mu_{p}(A) = {value:.10g}  ({matrix.shape[0]}x{matrix.shape[1]} matrix)"],
    )


# ---------------------------------------------------------------------------
# slognorm
# ---------------------------------------------------------------------------


@cli.command(name="slognorm")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@_P_OPTION
@_L_OPTION
@click.option(
    "--method",
    type=click.Choice(["direct", "definitional", "both"]),
    default="both",
    show_default=True,
    help="Which estimator(s) to run.",
)
@click.option("--samples", type=click.IntRange(min=2), default=None,
              help=_SAMPLES_HELP.format(what=""))
@_SEED_OPTION
@click.option("--h0", type=float, default=None,
              help="Largest step of the definitional h-sequence (default 0.05/max(1, norm(A,p))).")
@click.option("--hsteps", type=click.IntRange(min=2), default=7, show_default=True,
              help="Length of the halving h-sequence.")
@click.option("--tol", type=float, default=0.0, show_default=True,
              help="Stability cut-off added around zero when classifying.")
@_ANTITHETIC_OPTION
def cmd_slognorm(
    system_file: str,
    p: str,
    l: int,
    method: str,
    samples: int | None,
    seed: int,
    h0: float | None,
    hsteps: int,
    tol: float,
    antithetic: bool,
) -> None:
    """Estimate the stochastic logarithmic norm nu_p^l of a system file.

    Runs the white-noise (direct) estimator, the limit-definition
    (definitional) estimator, or both, plus every applicable closed-form
    bound and a stability classification.  The two estimators measure
    genuinely different functionals on some systems; a warning is emitted
    when they disagree beyond 3 combined standard errors.
    """
    system, meta = _load_system(system_file)
    ctx = click.get_current_context()
    if method == "direct" and any(ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
                                  for name in ("h0", "hsteps")):
        raise InputError("--h0 and --hsteps set the definitional estimator's steps; "
                         "--method direct does not use them")
    with _numeric_guard():
        cfg = McConfig(samples=samples, seed=seed, antithetic=antithetic)
        if h0 is not None and h0 <= 0:
            raise InputError(f"--h0 must be positive, got {h0}")
        if not (math.isfinite(tol) and tol >= 0):
            raise InputError(f"--tol must be finite and nonnegative, got {tol}")
        estimates: list[NuEstimate] = []
        if method in ("direct", "both"):
            estimates.append(nu_direct(system, p, l, cfg))
        if method in ("definitional", "both"):
            h_seq = (default_h_sequence(system, p, count=hsteps) if h0 is None
                     else tuple(h0 * 0.5**k for k in range(hsteps)))
            estimates.append(nu_definitional(system, p, l, h_seq, cfg))
        bounds = bounds_report(system, p, l)

    warnings: list[str] = []
    for est in estimates:
        if est.bias_warning:
            warnings.append(
                f"{est.estimator} estimator: extrapolation residual exceeds 10x the "
                f"error of the {_METHOD_LABELS[est.method]} quotients"
            )
        if not (math.isfinite(est.value) and math.isfinite(est.std_error)):
            warnings.append(
                f"{est.estimator} estimate is not finite ({est.value:.6g} +/- "
                f"{est.std_error:.3g}): the terms of its mean or their spread pass "
                "the float range"
            )
    if len(estimates) == 2:
        d, f = estimates
        if not agrees(d.value, f.value, math.hypot(d.std_error, f.std_error)):
            warnings.append(
                "direct and definitional estimators disagree beyond 3 combined "
                f"standard errors ({d.value:.6g} vs {f.value:.6g}); they measure "
                "different functionals on such systems (e.g. B = I) and are both reported"
            )

    results = {
        "system": {"dimension": system.dim, "channels": system.m, **meta},
        "estimates": [_estimate_payload(est) for est in estimates],
        "classification": {
            est.estimator: classify(est, tol).value for est in estimates
        },
        "bounds": bounds.items(),
        "bound_applicability": {
            name: BOUND_APPLICABILITY[name] for name in bounds.items()
        },
    }
    summary = [
        f"nu_p{p}_l{l} ({est.estimator}) = {_with_error(est, 10)}  "
        f"[{classify(est, tol).value}]"
        for est in estimates
    ] + [f"warning: {w}" for w in warnings]
    _emit(results, summary, warnings)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_x0(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        return np.ones(dim)
    values = []
    for i, tok in enumerate(text.split(","), 1):
        try:
            values.append(complex(tok.strip()))
        except ValueError as exc:
            raise InputError(f"--x0: cannot parse component {i} ({tok.strip()!r}): {exc}") from exc
    if len(values) != dim:
        raise InputError(f"--x0 has {len(values)} components, system dimension is {dim}")
    arr = np.asarray(values, dtype=np.complex128)
    if not np.any(arr.imag):
        return arr.real.copy()
    return arr


@cli.command(name="simulate")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", type=str, default=None,
              help="Comma-separated initial state (default: all ones).")
@click.option("--h", type=float, default=0.01, show_default=True, help="Step size.")
@click.option("--t-end", type=float, default=1.0, show_default=True, help="Final time.")
@click.option("--paths", type=click.IntRange(min=1), default=10000, show_default=True,
              help="Ensemble size.")
@click.option("--checkpoints", type=click.IntRange(min=1), default=10, show_default=True,
              help="Number of moment checkpoints (must divide the step count).")
@click.option("--scheme", type=click.Choice(["euler_maruyama", "milstein"]),
              default="milstein", show_default=True)
@_P_OPTION
@_L_OPTION
@_SEED_OPTION
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the trajectory as CSV (time, moment, stderr, paths, scheme).")
def cmd_simulate(
    system_file: str,
    x0: str | None,
    h: float,
    t_end: float,
    paths: int,
    checkpoints: int,
    scheme: str,
    p: str,
    l: int,
    seed: int,
    out: str | None,
) -> None:
    """Simulate E norm(X_t, p)^l over an ensemble and fit its growth rate."""
    system, meta = _load_system(system_file)
    with _numeric_guard():
        cfg = SimConfig(
            h=h, t_end=t_end, paths=paths, checkpoints=checkpoints,
            scheme=scheme, seed=seed, p=p, l=l,
        )
        start = _parse_x0(x0, system.dim)
        traj = simulate_moments(system, start, cfg)

    warnings: list[str] = []
    if paths == 1 and system.m > 0:
        warnings.append(
            "one path of a noisy system has no sample spread: its standard errors "
            "and the growth-rate error are nan; run at least two paths"
        )
    diverged_total = int(traj.diverged[-1])
    if diverged_total > 0:
        warnings.append(
            f"{diverged_total} of {paths} paths diverged (norm beyond 1e150 or norm^{l} "
            "beyond the float range); affected checkpoints report infinite moments"
        )
    overflowed = np.isfinite(traj.moments) & np.isinf(traj.std_errors)
    if overflowed.any():
        times = ", ".join(f"{t:g}" for t in traj.times[overflowed])
        warnings.append(
            f"standard error overflowed at t = {times}: the moment is finite, but the "
            f"squared spread of norm^{l} over the paths passes the float range"
        )
    rate_payload = None
    try:
        rate, rate_se = growth_rate(traj)
        rate_payload = {
            "identity": "ols_log_moment_slope",
            "value": rate,
            "std_error": rate_se,
        }
    except ValueError as exc:
        warnings.append(f"growth rate not fitted: {exc}")

    if out is not None:
        try:
            traj.write_csv(out)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc

    results = {
        "system": {"dimension": system.dim, "channels": system.m, **meta},
        "trajectory": {
            "identity": f"mean_norm_p{p}_power{l}",
            "times": list(traj.times),
            "moments": list(traj.moments),
            "std_errors": list(traj.std_errors),
            "diverged": [int(v) for v in traj.diverged],
        },
        "growth_rate": rate_payload,
        "csv_path": out,
    }
    summary = []
    if rate_payload is not None:
        summary.append(
            f"fitted growth rate of E||X||_{p}^{l}: "
            f"{rate_payload['value']:.6g} +/- {rate_payload['std_error']:.3g}"
        )
    summary.extend(f"warning: {w}" for w in warnings)
    if out is not None:
        summary.append(f"trajectory written to {out}")
    _emit(results, summary, warnings)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


@cli.command(name="table1")
@_SEED_OPTION
@click.option("--samples", type=click.IntRange(min=2), default=None,
              help=_SAMPLES_HELP.format(what=" per case"))
@_ANTITHETIC_OPTION
def cmd_table1(seed: int, samples: int | None, antithetic: bool) -> None:
    """Reproduce the published nu_2^2 benchmark table with fresh estimates.

    For each case the white-noise estimate, the closed-form bounds, the
    printed reference row, and agreement verdicts are reported.  Rows whose
    reference values are not reproducible from any printed formula carry
    explanatory annotations; case (h) is a randomly regenerated smoke case
    excluded from value checks.
    """
    rows = []
    summary = []
    with _numeric_guard():
        cfg = McConfig(samples=samples, seed=seed, antithetic=antithetic)
        for case in TABLE1_REFERENCE:
            system = table1_system(case, seed=seed)
            est = nu_direct(system, 2, 2, cfg)
            bounds = bounds_report(system, 2, 2)
            row = table1_row(case, est, bounds)
            rows.append({
                "case": case,
                "dimension": system.dim,
                "nu": _estimate_payload(est),
                "classification": classify(est).value,
                "bounds": bounds.items(),
                **row,
            })
            if row["verdicts"] is None:
                note = "(random regeneration; reference not comparable)"
            else:
                state = "OK" if row["verdicts"]["nu_matches_reference"] else "MISMATCH"
                note = f"(reference {row['reference']['nu']:.6g}) {state}"
            summary.append(
                f"case ({case}): nu = {_with_error(est, 6)} {note}"
            )
    _emit({"cases": rows}, summary, annotations=TABLE1_ANNOTATIONS)


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


@cli.command(name="examples")
@click.option(
    "--which",
    type=click.Choice(["pendulum", "nonnormal"]),
    required=True,
    help="Which worked example to evaluate.",
)
@click.option("--g-over-l", type=float, default=10.0, show_default=True,
              help="Pendulum: gravity to length ratio (> 0).")
@click.option("--eps", type=float, default=0.1, show_default=True,
              help="Pendulum: relative noise on the velocity coupling (0 < eps < 1).")
@click.option("--b", type=float, default=None,
              help="Pendulum: noise amplitude (>= 0, default 50); "
                   "nonnormal: drift coupling (default 1).")
@click.option("--sigma2", type=float, default=1.0, show_default=True,
              help="Nonnormal: signed sigma^2 (negative values model imaginary sigma).")
@click.option("--samples", type=click.IntRange(min=2), default=None,
              help=_SAMPLES_HELP.format(what=" for the cross-check estimate"))
@_SEED_OPTION
@_ANTITHETIC_OPTION
def cmd_examples(
    which: str,
    g_over_l: float,
    eps: float,
    b: float | None,
    sigma2: float,
    samples: int | None,
    seed: int,
    antithetic: bool,
) -> None:
    """Worked stability examples with closed-form nu_2^2 oracles.

    pendulum: noisy linearized pendulum with drift [[0, 1], [g/l, 0]] and
    diffusion [[0, eps], [b, 0]]; nu has the closed form E|N(c, s^2)| - eps*b
    with c = 1 + g/l and s = b + eps, so stabilization needs amplitude
    b >= (1 + g/l)/eps.

    nonnormal: drift [[-1, b], [0, -1]], diffusion [[0, sigma], [-sigma, 0]];
    nu = sigma^2 - 2 + |b| exactly, stable iff sigma^2 <= min(2 - b, 2 + b);
    a signed --sigma2 covers the imaginary-sigma regime.
    """
    with _numeric_guard():
        cfg = McConfig(samples=samples, seed=seed, antithetic=antithetic)
    for flag, value in (("--g-over-l", g_over_l), ("--eps", eps), ("--b", b),
                        ("--sigma2", sigma2)):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if which == "pendulum":
        amplitude = 50.0 if b is None else b
        if g_over_l <= 0:
            raise InputError(f"--g-over-l must be positive, got {g_over_l}")
        if not 0.0 < eps < 1.0:
            raise InputError(f"--eps must lie in (0, 1), got {eps}")
        if amplitude < 0:
            raise InputError(f"--b must be nonnegative, got {amplitude}")
        with _numeric_guard():
            example = pendulum(g_over_l, eps, amplitude)
            est = nu_direct(example.system, 2, 2, cfg)
        results = {
            "parameters": {"g_over_l": g_over_l, "eps": eps, "b": amplitude},
            "nu_closed_form": {
                "identity": "pendulum_folded_normal_mean",
                "value": example.nu,
            },
            "nu_estimate": _estimate_payload(est),
            "classification": classify(est).value,
            "amplitude_threshold": {
                "identity": "pendulum_necessary_amplitude",
                "value": example.threshold,
                "note": "mean-square stabilization is impossible for b below this value",
            },
            "estimate_matches_closed_form": agrees(est.value, example.nu, est.std_error),
        }
        summary = [
            f"pendulum: nu = {example.nu:.10g} (closed form), {_with_error(est, 10)}",
            f"necessary amplitude b* = {example.threshold:.10g}; requested b = {amplitude:g}",
        ]
    else:
        coupling = 1.0 if b is None else b
        with _numeric_guard():
            example = nonnormal(coupling, sigma2)
            est = None if example.system is None else nu_direct(example.system, 2, 2, cfg)
        results = {
            "parameters": {"b": coupling, "sigma2": sigma2},
            "nu_closed_form": {
                "identity": "nonnormal_direct_formula",
                "value": example.nu,
            },
            "stability_condition": {
                "identity": "nonnormal_sigma2_threshold",
                "value": example.threshold,
                "satisfied": sigma2 <= example.threshold,
                "note": "nu <= 0 exactly when sigma^2 <= min(2 - b, 2 + b)",
            },
            "no_real_sigma_stabilizes": example.threshold < 0,
        }
        summary = [
            f"nonnormal: nu = {example.nu:.10g} (exact), "
            f"stable iff sigma^2 <= {example.threshold:.10g}",
        ]
        if example.threshold < 0:
            summary.append(
                "no real sigma stabilizes this coupling (threshold below zero); "
                "only the signed-sigma2 regime can"
            )
        if est is not None:
            results["nu_estimate"] = _estimate_payload(est)
            results["classification"] = classify(est).value
            results["estimate_matches_closed_form"] = agrees(
                est.value, example.nu, est.std_error
            )
            summary.append(f"cross-check: {_with_error(est, 10)}")
    _emit(results, summary)


def main() -> None:
    cli(prog_name="slognorm")


if __name__ == "__main__":
    main()
