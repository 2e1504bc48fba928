"""Command-line front end for the estimation-bound toolkit.

Subcommands:

  bounds       compute bounds for a built-in or JSON-supplied model
  sweep        bounds over a cartesian parameter grid
  fig1         preciseness curves for the dephased-pair family
  verify-povm  validity, unbiasedness, and saturation report
  solve-sdp    solve a problem file in the sparse text format

Exit codes: 0 on success, 1 when a solve or measurement check fails,
2 for configuration and input-format errors.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

import numpy as np

from .bound_builders import (
    BoundError,
    holevo_bound,
    nagaoka_hayashi_bound,
)
from .measurement import (
    EIG_TOL,
    MeasurementError,
    check_unbiased,
    estimator_from_dict,
    interferometer_povm,
    mse_matrix,
    phase_damping_povm,
    validate_povm,
)
from .model import (
    ModelError,
    holland_burnett_probe,
    interferometer_model,
    model_from_dict,
    phase_damping_model,
    sld_bound,
)
from .sdp_core import SDPError, check_certificate, hermitian_form, read_sdpa, solve


class CliError(ValueError):
    """Configuration or input problem; maps to exit code 2."""


BOUND_NAMES = ("sld", "holevo", "nh")


def _read_file(path, what, parse):
    """`parse` of the text of file `path`; CliError names `what` when the
    file cannot be read as text or `parse` raises a ValueError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}")


def _load_model(args):
    if args.model_json is not None:
        return _read_file(args.model_json, "JSON model file",
                          lambda text: model_from_dict(json.loads(text)))
    return _builtin_model(args.model, args)


def _builtin_model(name, args):
    try:
        if name == "pd":
            return phase_damping_model(args.eps, params=args.params)
        if name == "ifo":
            return interferometer_model(_ifo_amps(args), args.eta, phi=args.phi)
        if name == "hb":
            probe = holland_burnett_probe(args.n_photons)
            return interferometer_model(probe, args.eta)
    except ModelError as exc:
        raise CliError(str(exc))
    raise CliError("no model given; use --model or --model-json")


def _ifo_amps(args):
    """Probe amplitudes of model 'ifo': --amps, else the split --a1sq."""
    if args.amps is not None:
        return args.amps
    if args.a1sq is None:
        raise CliError("model 'ifo' needs --a1sq or --amps")
    if not 0.0 < args.a1sq < 1.0:
        raise CliError("--a1sq must lie in (0, 1)")
    return [np.sqrt(1.0 - args.a1sq), np.sqrt(args.a1sq)]


def _bound_rows(model, which, tol, where=""):
    """One row per bound, and whether any failed.  A row is ok when its
    bound call returned: Holevo and NH return only optimal solves.  A
    failure's stderr line names the bound, then `where`, the grid point of
    a sweep or fig1 cell, when one is given."""
    rows = []
    for name in which:
        t0 = time.perf_counter()
        try:
            if name == "sld":
                value, gap = sld_bound(model), 0.0
            else:
                fn = holevo_bound if name == "holevo" else nagaoka_hayashi_bound
                result = fn(model, tol=tol)
                value, gap = result.value, result.gap
            ok = True
        except BoundError as exc:
            value, gap, ok = float("nan"), float("nan"), False
            at = f" at {where}" if where else ""
            print(f"{name}{at}: {exc}", file=sys.stderr)
        rows.append(
            {
                "bound": name,
                "value": value,
                "gap": gap,
                "seconds": time.perf_counter() - t0,
                "ok": ok,
            }
        )
    return rows, not all(row["ok"] for row in rows)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _write(args, text: str) -> None:
    """Send a report to the --out file, or to stdout without one."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            args.out.truncate(0)
            args.out.write(text)
            args.out.flush()
        except OSError as exc:
            raise CliError(f"cannot write --out file: {exc}")


def _emit(args, columns, rows) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    _write(args, text)


def run_bounds(args) -> int:
    model = _load_model(args)
    rows, failed = _bound_rows(model, args.bounds, args.tol)
    _emit(args, ("bound", "value", "gap", "seconds", "ok"), rows)
    return 1 if failed else 0


def _grid_points(axes):
    """Cartesian product in row-major order, indexed from zero."""
    values = [
        np.linspace(start, stop, steps) if steps > 1 else np.array([start])
        for _, start, stop, steps in axes
    ]
    points = [()]
    for vals in values:
        points = [p + (float(v),) for p in points for v in vals]
    return points


def run_sweep(args) -> int:
    if args.model is None:
        raise CliError("sweep needs a builtin --model")
    if not args.grid:
        raise CliError("sweep needs at least one --grid axis")
    axis_names = [name for name, _, _, _ in args.grid]
    allowed = {
        "pd": {"eps"},
        "ifo": {"eta", "a1sq"},
        "hb": {"eta"},
    }[args.model]
    for name in axis_names:
        if name not in allowed:
            raise CliError(
                f"grid axis '{name}' is not sweepable for model "
                f"'{args.model}'"
            )
    out_rows = []
    any_failed = False
    for index, values in enumerate(_grid_points(args.grid)):
        point = dict(zip(axis_names, values))
        model = _load_model(argparse.Namespace(**{**vars(args), **point}))
        where = " ".join(f"{k}={_fmt(v)}" for k, v in point.items())
        rows, failed = _bound_rows(model, args.bounds, args.tol, where)
        any_failed = any_failed or failed
        for row in rows:
            record = {"index": index, **point}
            record.update(
                {k: row[k] for k in ("bound", "value", "gap", "ok")}
            )
            out_rows.append(record)
    columns = ["index"] + axis_names + ["bound", "value", "gap", "ok"]
    _emit(args, tuple(columns), out_rows)
    return 1 if any_failed else 0


FIG1_COLUMNS = (
    "eps",
    "prec_h1",
    "prec_nh1",
    "prec_h2",
    "prec_nh2",
    "prec_h3",
    "prec_nh3",
)


def run_fig1(args) -> int:
    start, stop, steps = args.eps_start, args.eps_stop, args.steps
    if steps < 1:
        raise CliError("steps must be >= 1")
    if not (0.0 <= start <= stop < 1.0):
        raise CliError("eps grid must satisfy 0 <= start <= stop < 1")
    grid = np.linspace(start, stop, steps) if steps > 1 else [start]
    rows = []
    any_failed = False
    for eps in grid:
        row = {"eps": float(eps)}
        for count, params in ((1, "x"), (2, "xy"), (3, "xyz")):
            model = phase_damping_model(float(eps), params=params)
            where = f"eps={_fmt(float(eps))} params={params}"
            (h, nh), failed = _bound_rows(model, ("holevo", "nh"), args.tol, where)
            any_failed = any_failed or failed
            row[f"prec_h{count}"] = count / h["value"]
            row[f"prec_nh{count}"] = count / nh["value"]
        rows.append(row)
    _emit(args, FIG1_COLUMNS, rows)
    return 1 if any_failed else 0


def _verify_target(args):
    if args.povm_json is not None:
        if args.model_json is None:
            raise CliError("--povm-json needs --model-json for the model")
        estimator = _read_file(args.povm_json, "JSON POVM file",
                               lambda text: estimator_from_dict(json.loads(text)))
        return _load_model(args), estimator
    if args.builtin == "pd":
        a, b, split = args.a, args.b, args.split_delta
        if split is not None and a is None and b is None:
            # the split form needs delta = (a^2 + b^2)/2, met by a = b = sqrt(delta)
            if not split >= 0.0:
                raise MeasurementError(f"split_delta must be non-negative, got {split!r}")
            a = b = float(np.sqrt(split))
        if a is None or b is None:
            raise CliError("builtin 'pd' needs --a and --b (or --split-delta)")
        estimator = phase_damping_povm(args.eps, a, b, split_delta=split)
        params = "xy" if split is None else "xyz"
        model = _builtin_model("pd", argparse.Namespace(eps=args.eps, params=params))
        return model, estimator
    if args.builtin == "ifo":
        if args.a1sq is None:
            raise CliError("builtin 'ifo' needs --a1sq")
        a0, a1 = (float(v) for v in _ifo_amps(args))
        estimator = interferometer_povm(a0, a1, args.eta)
        return _builtin_model("ifo", args), estimator
    raise CliError("verify-povm needs --builtin {pd,ifo} or --povm-json")


def run_verify_povm(args) -> int:
    try:
        model, estimator = _verify_target(args)
    except MeasurementError as exc:
        print(f"measurement construction failed: {exc}", file=sys.stderr)
        return 1
    lines = [f"outcomes: {estimator.povm.num_outcomes}"]
    report = validate_povm(estimator.povm)
    lines.append(f"min eigenvalue: {min(report.min_eigenvalues):.3e}")
    lines.append(
        f"completeness residual: {report.completeness_residual:.3e}"
    )
    lines.append(f"validity: {'pass' if report.passed else 'FAIL'}")
    failed_check = None
    if not report.passed:
        if any(e < -EIG_TOL for e in report.min_eigenvalues):
            failed_check = "positivity"
        else:
            failed_check = "completeness"
    unbiased = check_unbiased(model, estimator)
    lines.append(
        f"unbiasedness max residual: {unbiased.max_residual:.3e}"
    )
    if failed_check is None and not unbiased.passed:
        failed_check = "unbiasedness"
    if failed_check is None:
        v = mse_matrix(model, estimator)
        for label, variance in zip(model.labels, np.diag(v)):
            lines.append(f"variance {label}: {variance:.9g}")
        trace = float(np.trace(v))
        lines.append(f"mse trace: {trace:.9g}")
        bound = nagaoka_hayashi_bound(model, tol=args.tol).value
        lines.append(f"bound: {bound:.9g}")
        lines.append(f"deficit: {trace - bound:.3e}")
    else:
        lines.append(f"failing check: {failed_check}")
    _write(args, "\n".join(lines) + "\n")
    return 1 if failed_check else 0


def run_solve_sdp(args) -> int:
    problem = _read_file(args.file, "problem file", read_sdpa)
    # a Hermitian program's file holds its real embedding, of twice the dimension
    problem = hermitian_form(problem) or problem
    sol = solve(problem, tol=args.tol, max_iter=args.max_iter)
    report = check_certificate(problem, sol, tol=max(args.tol, 1e-7))
    lines = [
        f"status: {sol.status}",
        f"iterations: {sol.iterations}",
        f"primal objective: {sol.primal_obj:.9g}",
        f"dual objective: {sol.dual_obj:.9g}",
        f"gap: {sol.gap:.3e}",
    ]
    for name, ok in report.checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    lines.append(
        f"certificate: {'pass' if report.passed else 'FAIL'}"
    )
    _write(args, "\n".join(lines) + "\n")
    return 0 if sol.status == "optimal" and report.passed else 1


def _parse_grid(specs):
    """(name, start, stop, steps) per --grid spec, in the order given."""
    axes = []
    for spec in specs or ():
        try:
            name, rest = spec.split("=", 1)
            start, stop, steps = rest.split(":")
            axes.append((name.strip(), float(start), float(stop), int(steps)))
        except ValueError:
            raise CliError(
                f"bad grid spec {spec!r}; expected name=start:stop:steps"
            )
    return tuple(axes)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmbounds",
        description="Attainability bounds for multi-parameter estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None)
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    def model_flags(p):
        p.add_argument("--model", choices=("pd", "ifo", "hb"), default=None)
        p.add_argument("--model-json", dest="model_json", default=None)
        p.add_argument("--params", default="xyz")
        p.add_argument("--eps", type=float, default=0.3)
        p.add_argument("--N", dest="n_photons", type=int, default=1)
        p.add_argument("--a1sq", type=float, default=None)
        p.add_argument("--amps", default=None,
                       help="comma-separated amplitudes for model 'ifo'")
        p.add_argument("--eta", type=float, default=0.1)
        p.add_argument("--phi", type=float, default=0.0)
        p.add_argument("--bounds", default="sld,holevo,nh")

    p = sub.add_parser("bounds", help="compute bounds for one model")
    common(p)
    model_flags(p)

    p = sub.add_parser("sweep", help="bounds over a parameter grid")
    common(p)
    model_flags(p)
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:STEPS")

    p = sub.add_parser("fig1", help="preciseness curves, dephased pair")
    common(p)
    p.add_argument("--eps-start", dest="eps_start", type=float, default=0.0)
    p.add_argument("--eps-stop", dest="eps_stop", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=50)

    p = sub.add_parser("verify-povm", help="measurement saturation report")
    common(p, table=False)
    p.add_argument("--builtin", choices=("pd", "ifo"), default=None)
    p.add_argument("--povm-json", dest="povm_json", default=None)
    p.add_argument("--model-json", dest="model_json", default=None)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--split-delta", dest="split_delta", type=float,
                   default=None)
    p.add_argument("--a1sq", type=float, default=None)
    p.add_argument("--eta", type=float, default=0.1)
    # the 'ifo' model's other flags, at the values verify-povm measures
    p.set_defaults(amps=None, phi=0.0)

    p = sub.add_parser("solve-sdp", help="solve a sparse-format problem file")
    common(p, table=False)
    p.add_argument("file")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The checks argparse cannot make, in a fixed order so that a command
    with several faults always names the same one. The parsed --bounds,
    --amps and --grid values replace their strings in `args`, and the
    opened --out file its path, once every other check has passed."""
    if args.command in ("bounds", "sweep"):
        args.bounds = tuple(
            s.strip() for s in args.bounds.split(",") if s.strip()
        )
        for k, name in enumerate(args.bounds):
            if name not in BOUND_NAMES:
                raise CliError(f"unknown bound {name!r}")
            if name in args.bounds[:k]:
                raise CliError(f"bound {name!r} is given more than once")
        if not args.bounds:
            raise CliError("--bounds names no bound")
        if args.amps is not None:
            try:
                args.amps = tuple(float(v) for v in args.amps.split(","))
            except ValueError:
                raise CliError(f"bad --amps value {args.amps!r}")
    if args.command == "sweep":
        args.grid = _parse_grid(args.grid)
    if not 0.0 < args.tol <= 1e-2:
        raise CliError(f"tol must lie in (0, 1e-2], got {args.tol!r}")
    for k, (name, _, _, steps) in enumerate(getattr(args, "grid", ())):
        if steps < 1:
            raise CliError(f"grid axis '{name}': steps must be >= 1")
        if name in [axis for axis, _, _, _ in args.grid[:k]]:
            raise CliError(f"grid axis '{name}' is given more than once")
    if getattr(args, "max_iter", 1) < 1:
        raise CliError(f"--max-iter must be >= 1, got {args.max_iter}")
    if args.out is not None:
        # before any solve, to append: nothing in it is lost before the
        # report replaces it, and it may be the input file
        try:
            args.out = open(args.out, "a", newline="\n")
        except OSError as exc:
            raise CliError(f"cannot write --out file: {exc}")


RUNNERS = {
    "bounds": run_bounds,
    "sweep": run_sweep,
    "fig1": run_fig1,
    "verify-povm": run_verify_povm,
    "solve-sdp": run_solve_sdp,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        with args.out or contextlib.nullcontext():
            return RUNNERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundError, SDPError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
