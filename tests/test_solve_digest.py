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


COMPARE = TOOL.with_name("digest_compare.py")


def test_compare_passes_two_digests_of_one_tree_and_fails_a_doctored_one(tmp_path):
    # two runs of the tool on one tree agree line for line; a changed
    # status, or a value moved by more than 1e-9 (1 + |value|), exits 1
    paths = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--seed", "3", "--tiny",
             "--workload", "large-ladder", "--workload", "file-verify"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        paths.append(tmp_path / name)
        paths[-1].write_text(proc.stdout)

    def compare(b):
        proc = subprocess.run([sys.executable, str(COMPARE), str(paths[0]), str(b)],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, [line.split("\t") for line in proc.stdout.splitlines()]

    code, rows = compare(paths[1])
    assert code == 0
    lines = paths[0].read_text().splitlines()
    groups = {(w, bound) for w, _, bound, *_ in (line.split("\t") for line in lines)}
    assert len(rows) == len(groups)
    for workload, bound, _, same, _, changes, _, it_a, it_b, _, top in rows:
        count = sum(line.startswith(f"{workload}\t") and line.split("\t")[2] == bound for line in lines)
        assert (workload, bound) in groups
        assert same == f"{count}/{count}" and changes == "0" and it_a == it_b and float(top) == 0.0

    fields = lines[1].split("\t")  # hb N=2's Holevo line
    assert fields[2] == "holevo" and fields[3] == "optimal"
    doctored = tmp_path / "doctored"
    doctored.write_text("\n".join(lines[:1] + ["\t".join(fields[:3] + ["max_iter"] + fields[4:])] + lines[2:]) + "\n")
    code, rows = compare(doctored)
    assert code == 1
    assert ["status", *fields[:3], "optimal", "max_iter"] in rows

    moved = fields[:-1] + [repr(float(fields[-1]) * (1 + 1e-6))]
    doctored.write_text("\n".join(lines[:1] + ["\t".join(moved)] + lines[2:]) + "\n")
    code, rows = compare(doctored)
    assert code == 1
    assert [row[:5] for row in rows if row[0] == "move"] == [["move", *fields[:3], "1"]]
