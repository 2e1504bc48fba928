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
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bound_builders import (
    BoundError,
    holevo_bound,
    nagaoka_hayashi_bound,
)
from .measurement import (
    MeasurementError,
    MeasurementFormatError,
    check_unbiased,
    estimator_from_dict,
    interferometer_povm,
    mse_matrix,
    phase_damping_povm,
    validate_povm,
)
from .model import (
    ModelError,
    ModelFormatError,
    holland_burnett_probe,
    interferometer_model,
    model_from_dict,
    phase_damping_model,
    sld_bound,
)
from .sdp_core import SDPError, check_certificate, read_sdpa, solve


class CliError(ValueError):
    """Configuration or input problem; maps to exit code 2."""


@dataclass(frozen=True)
class GridAxis:
    name: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command, model source, grid, output."""

    command: str
    model: str | None = None
    model_path: str | None = None
    grid: tuple[GridAxis, ...] = ()
    tol: float = 1e-9
    out: str | None = None
    format: str = "csv"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-2:
            raise CliError(f"tol must lie in (0, 1e-2], got {self.tol!r}")
        if self.format not in ("csv", "json"):
            raise CliError(f"unknown format {self.format!r}")
        for axis in self.grid:
            if axis.steps < 1:
                raise CliError(
                    f"grid axis '{axis.name}': steps must be >= 1"
                )


BOUND_NAMES = ("sld", "holevo", "nh")


def _load_model(config: RunConfig, overrides: dict | None = None):
    opts = dict(config.options)
    if overrides:
        opts.update(overrides)
    if config.model_path is not None:
        try:
            with open(config.model_path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read model file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"model file is not valid JSON: {exc}")
        try:
            return model_from_dict(payload)
        except (ModelFormatError, ModelError) as exc:
            raise CliError(f"bad model file: {exc}")
    try:
        return _builtin_model(config.model, opts)
    except ModelError as exc:
        raise CliError(str(exc))


def _builtin_model(name, opts):
    if name == "pd":
        return phase_damping_model(opts["eps"], params=opts["params"])
    if name == "ifo":
        if opts.get("amps") is not None:
            amps = [float(v) for v in opts["amps"]]
        else:
            a1sq = opts["a1sq"]
            if a1sq is None:
                raise CliError("model 'ifo' needs --a1sq or --amps")
            if not 0.0 < a1sq < 1.0:
                raise CliError("--a1sq must lie in (0, 1)")
            amps = [np.sqrt(1.0 - a1sq), np.sqrt(a1sq)]
        return interferometer_model(amps, opts["eta"], phi=opts.get("phi", 0.0))
    if name == "hb":
        probe = holland_burnett_probe(opts["n_photons"])
        return interferometer_model(probe, opts["eta"])
    raise CliError("no model given; use --model or --model-json")


def _bound_rows(model, which, tol):
    rows = []
    failed = False
    for name in which:
        t0 = time.perf_counter()
        try:
            if name == "sld":
                value = sld_bound(model)
                gap, ok = 0.0, True
            else:
                fn = holevo_bound if name == "holevo" else nagaoka_hayashi_bound
                result = fn(model, tol=tol)
                value = result.value
                gap = result.gap
                ok = result.solver_stats["status"] == "optimal" and gap <= max(
                    tol, 1e-7
                )
        except BoundError as exc:
            value, gap, ok = float("nan"), float("nan"), False
            print(f"{name}: {exc}", file=sys.stderr)
        if not ok:
            failed = True
        rows.append(
            {
                "bound": name,
                "value": value,
                "gap": gap,
                "seconds": time.perf_counter() - t0,
                "ok": ok,
            }
        )
    return rows, failed


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _emit(config: RunConfig, columns, rows) -> None:
    if config.format == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)


def run_bounds(config: RunConfig) -> int:
    model = _load_model(config)
    which = config.options.get("bounds", BOUND_NAMES)
    rows, failed = _bound_rows(model, which, config.tol)
    _emit(config, ("bound", "value", "gap", "seconds", "ok"), rows)
    return 1 if failed else 0


def _grid_points(axes: tuple[GridAxis, ...]):
    """Cartesian product in row-major order, indexed from zero."""
    values = [
        np.linspace(ax.start, ax.stop, ax.steps) if ax.steps > 1
        else np.array([ax.start])
        for ax in axes
    ]
    points = [()]
    for vals in values:
        points = [p + (float(v),) for p in points for v in vals]
    return points


def run_sweep(config: RunConfig) -> int:
    if config.model is None:
        raise CliError("sweep needs a builtin --model")
    if not config.grid:
        raise CliError("sweep needs at least one --grid axis")
    which = config.options.get("bounds", BOUND_NAMES)
    axis_names = [ax.name for ax in config.grid]
    allowed = {
        "pd": {"eps"},
        "ifo": {"eta", "a1sq"},
        "hb": {"eta"},
    }[config.model]
    for name in axis_names:
        if name not in allowed:
            raise CliError(
                f"grid axis '{name}' is not sweepable for model "
                f"'{config.model}'"
            )
    out_rows = []
    any_failed = False
    for index, values in enumerate(_grid_points(config.grid)):
        model = _load_model(config, overrides=dict(zip(axis_names, values)))
        rows, failed = _bound_rows(model, which, config.tol)
        any_failed = any_failed or failed
        for row in rows:
            record = {"index": index}
            record.update(dict(zip(axis_names, values)))
            record.update(
                {k: row[k] for k in ("bound", "value", "gap", "ok")}
            )
            out_rows.append(record)
    columns = ["index"] + axis_names + ["bound", "value", "gap", "ok"]
    _emit(config, tuple(columns), out_rows)
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


def run_fig1(config: RunConfig) -> int:
    start = config.options.get("eps_start", 0.0)
    stop = config.options.get("eps_stop", 0.9)
    steps = config.options.get("steps", 50)
    if steps < 1:
        raise CliError("steps must be >= 1")
    if not (0.0 <= start <= stop < 1.0):
        raise CliError("eps grid must satisfy 0 <= start <= stop < 1")
    grid = np.linspace(start, stop, steps) if steps > 1 else [start]
    rows = []
    for eps in grid:
        row = {"eps": float(eps)}
        for count, params in ((1, "x"), (2, "xy"), (3, "xyz")):
            model = phase_damping_model(float(eps), params=params)
            ch = holevo_bound(model, tol=config.tol).value
            cn = nagaoka_hayashi_bound(model, tol=config.tol).value
            row[f"prec_h{count}"] = count / ch
            row[f"prec_nh{count}"] = count / cn
        rows.append(row)
    _emit(config, FIG1_COLUMNS, rows)
    return 0


def _verify_target(config: RunConfig):
    opts = config.options
    if opts.get("povm_path") is not None:
        if config.model_path is None:
            raise CliError("--povm-json needs --model-json for the model")
        try:
            with open(opts["povm_path"]) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read POVM file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"POVM file is not valid JSON: {exc}")
        try:
            estimator = estimator_from_dict(payload)
        except MeasurementFormatError as exc:
            raise CliError(f"bad POVM file: {exc}")
        return _load_model(config), estimator
    builtin = opts.get("builtin")
    if builtin == "pd":
        eps = opts["eps"]
        split = opts.get("split_delta")
        a = opts.get("a")
        b = opts.get("b")
        if split is not None and a is None and b is None:
            a = b = float(np.sqrt(split))
        if a is None or b is None:
            raise CliError("builtin 'pd' needs --a and --b (or --split-delta)")
        estimator = phase_damping_povm(eps, a, b, split_delta=split)
        params = "xy" if split is None else "xyz"
        return phase_damping_model(eps, params=params), estimator
    if builtin == "ifo":
        a1sq = opts.get("a1sq")
        if a1sq is None:
            raise CliError("builtin 'ifo' needs --a1sq")
        a0, a1 = float(np.sqrt(1.0 - a1sq)), float(np.sqrt(a1sq))
        estimator = interferometer_povm(a0, a1, opts["eta"])
        return interferometer_model([a0, a1], opts["eta"]), estimator
    raise CliError("verify-povm needs --builtin {pd,ifo} or --povm-json")


def run_verify_povm(config: RunConfig) -> int:
    try:
        model, estimator = _verify_target(config)
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
        if any(e < -1e-10 for e in report.min_eigenvalues):
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
        bound = nagaoka_hayashi_bound(model, tol=config.tol).value
        lines.append(f"bound: {bound:.9g}")
        lines.append(f"deficit: {trace - bound:.3e}")
    else:
        lines.append(f"failing check: {failed_check}")
    text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    return 1 if failed_check else 0


def run_solve_sdp(config: RunConfig) -> int:
    path = config.options["sdp_path"]
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read problem file: {exc}")
    try:
        problem = read_sdpa(text)
    except ValueError as exc:
        raise CliError(f"bad problem file: {exc}")
    sol = solve(
        problem,
        tol=config.tol,
        max_iter=config.options.get("max_iter", 200),
    )
    report = check_certificate(problem, sol, tol=max(config.tol, 1e-7))
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
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if sol.status == "optimal" and report.passed else 1


def _parse_grid(specs) -> tuple[GridAxis, ...]:
    axes = []
    for spec in specs or ():
        try:
            name, rest = spec.split("=", 1)
            start, stop, steps = rest.split(":")
            axes.append(
                GridAxis(
                    name=name.strip(),
                    start=float(start),
                    stop=float(stop),
                    steps=int(steps),
                )
            )
        except ValueError:
            raise CliError(
                f"bad grid spec {spec!r}; expected name=start:stop:steps"
            )
    return tuple(axes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmbounds",
        description="Attainability bounds for multi-parameter estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None)
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
    common(p)
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

    p = sub.add_parser("solve-sdp", help="solve a sparse-format problem file")
    common(p)
    p.add_argument("file")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options: dict = {}
    if args.command in ("bounds", "sweep"):
        which = tuple(
            s.strip() for s in args.bounds.split(",") if s.strip()
        )
        for name in which:
            if name not in BOUND_NAMES:
                raise CliError(f"unknown bound {name!r}")
        amps = None
        if args.amps is not None:
            try:
                amps = tuple(float(v) for v in args.amps.split(","))
            except ValueError:
                raise CliError(f"bad --amps value {args.amps!r}")
        options = {
            "bounds": which,
            "params": args.params,
            "eps": args.eps,
            "n_photons": args.n_photons,
            "a1sq": args.a1sq,
            "amps": amps,
            "eta": args.eta,
            "phi": args.phi,
        }
    elif args.command == "fig1":
        options = {
            "eps_start": args.eps_start,
            "eps_stop": args.eps_stop,
            "steps": args.steps,
        }
    elif args.command == "verify-povm":
        options = {
            "builtin": args.builtin,
            "povm_path": args.povm_json,
            "eps": args.eps,
            "a": args.a,
            "b": args.b,
            "split_delta": args.split_delta,
            "a1sq": args.a1sq,
            "eta": args.eta,
        }
    elif args.command == "solve-sdp":
        options = {"sdp_path": args.file, "max_iter": args.max_iter}
    return RunConfig(
        command=args.command,
        model=getattr(args, "model", None),
        model_path=getattr(args, "model_json", None),
        grid=_parse_grid(getattr(args, "grid", None)),
        tol=args.tol,
        out=args.out,
        format=args.format,
        options=options,
    )


RUNNERS = {
    "bounds": run_bounds,
    "sweep": run_sweep,
    "fig1": run_fig1,
    "verify-povm": run_verify_povm,
    "solve-sdp": run_solve_sdp,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return RUNNERS[config.command](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundError, SDPError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
