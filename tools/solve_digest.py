"""One line per solve of the benchmark workloads, with a digest of its result.

    python3 tools/solve_digest.py --seed 1 [--tiny] [--workload NAME ...]

Runs from the root of a source checkout and imports the package from its
`src/` and the workloads from `bench/workloads.py`, which it only reads. It
makes the solves of one pass of each workload, as that pass makes them:

  large-ladder  `holevo_bound` and `nagaoka_hayashi_bound` on the ladder models
  small-grid    the `fig1` and `sweep` commands (their Holevo and NH cells)
  file-verify   `solve-sdp` on each written program file, read back, and the
                NH solve of each `verify-povm` command

Each line is tab-separated: workload, label, bound, status, iterations, and
the first 16 hex digits of a sha256 over the status, the iteration count,
both objectives, the gap, both infeasibilities, `dual_y` and every primal
and dual block.  Run it on two trees and diff the outputs: a solve whose
arithmetic a change left alone keeps its line.  Exits 1 when a call makes
a different number of solves than its labels expect.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qmbounds import bound_builders, cli, sdp_core  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("large-ladder", "small-grid", "file-verify")


def digest(sol) -> str:
    h = hashlib.sha256(f"{sol.status} {sol.iterations}".encode())
    scalars = (sol.primal_obj, sol.dual_obj, sol.gap, sol.primal_infeas, sol.dual_infeas)
    h.update(np.array(scalars, dtype=np.float64).tobytes())
    for arr in (sol.dual_y, *sol.primal, *sol.dual_Z):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def ladder_calls(seed, tiny, workdir):
    for label, m, _ in workloads.LargeLadder().setup(seed, tiny, workdir):
        yield [(label, "holevo")], lambda m=m: bound_builders.holevo_bound(m)
        yield [(label, "nh")], lambda m=m: bound_builders.nagaoka_hayashi_bound(m)


def grid_calls(seed, tiny, workdir):
    inputs = workloads.SmallGrid().setup(seed, tiny, workdir)
    for label, kind, argv in inputs["runs"]:
        if kind is None:  # fig1: per point and parameter set, Holevo then NH
            labels = [(f"fig1 {params} eps={eps:.9g}", bound)
                      for eps in inputs["fig1_grid"] for params in ("x", "xy", "xyz")
                      for bound in ("holevo", "nh")]
        elif kind == "sld":
            continue
        else:
            model_name = label.rsplit(" ", 1)[0]
            axis, grid = inputs["grids"][model_name]
            labels = [(f"{model_name} {axis}={x:.9g}", kind) for x in grid]
        yield labels, lambda argv=argv: workloads.run_cli(argv)


def file_calls(seed, tiny, workdir):
    inputs = workloads.FileVerify().setup(seed, tiny, workdir)
    for _, kind, path, _ in inputs["files"]:
        yield [(f"file {path.name}", kind)], lambda path=path: workloads.run_cli(["solve-sdp", str(path)])
    for label, argv in inputs["povms"]:
        yield [(f"verify-povm {label}", "nh")], lambda argv=argv: workloads.run_cli(argv)


CALLS = {"large-ladder": ladder_calls, "small-grid": grid_calls, "file-verify": file_calls}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true", help="the workloads' smallest inputs")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to run (default: all three)")
    args = p.parse_args(argv)

    solves = []
    solve = sdp_core.solve

    def recorded(*a, **k):
        sol = solve(*a, **k)
        solves.append(sol)
        return sol

    ok = True
    bound_builders.solve = cli.solve = recorded
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name in args.workload or WORKLOADS:
                for labels, call in CALLS[name](args.seed, args.tiny, Path(workdir)):
                    solves.clear()
                    try:
                        call()
                    except bound_builders.BoundError:
                        pass  # the solve, if one was made, is recorded
                    if len(solves) != len(labels):
                        print(f"{name}: {labels[0][0]} made {len(solves)} solves, "
                              f"expected {len(labels)}", file=sys.stderr)
                        ok = False
                    for (label, bound), sol in zip(labels, solves):
                        print("\t".join((name, label, bound, sol.status, str(sol.iterations), digest(sol))))
    finally:
        bound_builders.solve = cli.solve = solve
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
