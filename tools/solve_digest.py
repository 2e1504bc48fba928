"""One line per solve of the benchmark workloads, with a digest of its result.

    python3 tools/solve_digest.py --seed 1 [--tiny] [--workload NAME ...]

Runs from the root of a source checkout and imports the package from its
`src/` and the workloads from `bench/workloads.py`, which it only reads. It
makes the solves of one pass of each workload, as that pass makes them:

  large-ladder  `sld_bound`, `holevo_bound` and `nagaoka_hayashi_bound` on the
                ladder models
  small-grid    the `fig1` and `sweep` commands (their Holevo and NH cells)
  file-verify   `solve-sdp` on each written program file, read back, and the
                NH solve of each `verify-povm` command; a `solve-sdp` line
                digests the solve of the file's Hermitian form
                (`sdp_core.hermitian_form`) when the file has one

Each line is tab-separated: workload, label, bound, status, iterations, and
the first 16 hex digits of a sha256 over the status, the iteration count,
both objectives, the gap, both infeasibilities, `dual_y` and every primal
and dual block, then the `repr` of the primal and of the dual objective, so
that two outputs can also be compared by value.  An `sld` line has status
`ok`, 0 iterations, the digest of the float64 value of the SLD bound, which
makes no solve, and the `repr` of that value.  After the line of each
program file comes its `text` line, with two fields after the bound: the
sha256 of the file as `write_sdpa` wrote it, and `same` or `differs` for
`write_sdpa(read_sdpa(text)) == text`.  Run it on
two trees and diff the outputs: a solve whose arithmetic a change left
alone keeps its line, and a file whose bytes it left alone keeps its text
line.  Exits 1 when a call makes a different number of solves
than its labels expect.

After the output, stderr gets one tab-separated line per workload and
bound that made a solve: workload, bound, `iterations`, and the sum of
that bound's iteration fields on stdout.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qmbounds import bound_builders, cli, model, sdp_core  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("large-ladder", "small-grid", "file-verify")


def digest(sol) -> str:
    h = hashlib.sha256(f"{sol.status} {sol.iterations}".encode())
    scalars = (sol.primal_obj, sol.dual_obj, sol.gap, sol.primal_infeas, sol.dual_infeas)
    h.update(np.array(scalars, dtype=np.float64).tobytes())
    for arr in (sol.dual_y, *sol.primal, *sol.dual_Z):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class TextDigest(NamedTuple):
    """A written program file's sha256, and whether reading and writing it
    back gives the same text."""

    sha256: str
    round_trip: str  # "same" or "differs"


def text_digest(text: str) -> TextDigest:
    same = sdp_core.write_sdpa(sdp_core.read_sdpa(text)) == text
    return TextDigest(hashlib.sha256(text.encode()).hexdigest(), "same" if same else "differs")


def fields(out) -> tuple[str, ...]:
    """Status, iterations, digest and the `repr` of both objectives of a
    solve, or of an SLD bound value and that value; the two fields of a
    `TextDigest`."""
    if isinstance(out, TextDigest):
        return tuple(out)
    if isinstance(out, float):
        return "ok", "0", hashlib.sha256(np.float64(out).tobytes()).hexdigest()[:16], repr(float(out))
    return (out.status, str(out.iterations), digest(out),
            repr(float(out.primal_obj)), repr(float(out.dual_obj)))


def ladder_calls(seed, tiny, workdir):
    for label, m, _ in workloads.LargeLadder().setup(seed, tiny, workdir):
        yield [(label, "sld")], lambda m=m: model.sld_bound(m)
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
    for _, kind, path, text in inputs["files"]:
        yield [(f"file {path.name}", kind)], lambda path=path: workloads.run_cli(["solve-sdp", str(path)])
        yield [(f"file {path.name}", "text")], lambda text=text: text_digest(text)
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
    totals = {}  # (workload, bound): iterations of its solves
    bound_builders.solve = cli.solve = recorded
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name in args.workload or WORKLOADS:
                for labels, call in CALLS[name](args.seed, args.tiny, Path(workdir)):
                    solves.clear()
                    try:
                        out = call()
                    except bound_builders.BoundError:
                        pass  # the solve, if one was made, is recorded
                    else:
                        if isinstance(out, (float, TextDigest)):
                            solves.append(out)
                    if len(solves) != len(labels):
                        print(f"{name}: {labels[0][0]} made {len(solves)} solves, "
                              f"expected {len(labels)}", file=sys.stderr)
                        ok = False
                    for (label, bound), sol in zip(labels, solves):
                        print("\t".join((name, label, bound, *fields(sol))))
                        if isinstance(sol, sdp_core.SDPSolution):
                            totals[name, bound] = totals.get((name, bound), 0) + sol.iterations
    finally:
        bound_builders.solve = cli.solve = solve
    sys.stdout.flush()
    for (name, bound), total in totals.items():
        print(f"{name}\t{bound}\titerations\t{total}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
