"""The solve digest tool runs against the benchmark workloads as they stand."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"


def assert_iteration_totals(proc, workload, lines):
    # after the output, one stderr line per bound that made a solve, with
    # the total of its iteration fields, in the order the bounds first
    # appear; an `sld` value and a `text` line make no solve
    totals = {}
    for _, _, bound, *rest in lines:
        if bound not in ("sld", "text"):
            totals[bound] = totals.get(bound, 0) + int(rest[1])
    assert totals
    assert proc.stderr.splitlines() == [f"{workload}\t{bound}\titerations\t{total}" for bound, total in totals.items()]


def test_digest_lists_each_ladder_solve_once():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--tiny", "--workload", "large-ladder"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    # two hb and two random models, each with SLD, Holevo and NH
    assert [(w, label, bound) for w, label, bound, *_ in lines] == [
        ("large-ladder", label, bound)
        for label in ("hb N=2", "hb N=4", "random d=2", "random d=3")
        for bound in ("sld", "holevo", "nh")
    ]
    for _, _, bound, status, iterations, sha, *values in lines:
        if bound == "sld":  # a value, which no solve makes, and that value
            assert status == "ok" and iterations == "0"
            assert len(values) == 1 and float(values[0]) > 0
        else:  # the primal and the dual objective
            assert status == "optimal" and int(iterations) > 0
            assert len(values) == 2
            primal, dual = map(float, values)
            assert abs(primal - dual) <= 1e-6 * (1 + abs(dual))
        assert re.fullmatch("[0-9a-f]{16}", sha)
    assert_iteration_totals(proc, "large-ladder", lines)


@pytest.mark.parametrize("workload, count", [("small-grid", 20), ("file-verify", 15)])
def test_digest_lists_each_solve_of_the_other_workloads_once(workload, count):
    # statuses are not pinned but those of the program files: a solver
    # change may settle a known failure.  Each of the six program files
    # also has a text line: its sha256, and that it reads and writes back
    # to the same text
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--tiny", "--workload", workload],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert len(lines) == count
    assert len({(label, bound) for _, label, bound, *_ in lines}) == count
    texts = [fields for fields in lines if fields[2] == "text"]
    assert len(texts) == (6 if workload == "file-verify" else 0)
    for name, label, _, sha, same in texts:
        assert name == workload and label.startswith("file ")
        assert re.fullmatch("[0-9a-f]{64}", sha) and same == "same"
    for fields in lines:
        if fields[2] == "text":
            continue
        assert len(fields) == 8
        name, label, bound, status, iterations, sha, primal, dual = fields
        assert name == workload and label and bound in ("holevo", "nh")
        assert status in ("optimal", "infeasible_suspect", "stalled", "max_iter")
        if label.startswith("file "):  # no program file has a known failure
            assert status == "optimal"
        assert iterations.isdigit()
        assert re.fullmatch("[0-9a-f]{16}", sha)
        float(primal), float(dual)  # each the repr of a float
    assert_iteration_totals(proc, workload, lines)
