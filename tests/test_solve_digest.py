"""The solve digest tool runs against the benchmark workloads as they stand."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"


def test_digest_lists_each_ladder_solve_once():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--tiny", "--workload", "large-ladder"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    # two hb and two random models, each with Holevo and NH
    assert [(w, label, bound) for w, label, bound, *_ in lines] == [
        ("large-ladder", label, bound)
        for label in ("hb N=2", "hb N=4", "random d=2", "random d=3")
        for bound in ("holevo", "nh")
    ]
    for *_, status, iterations, sha in lines:
        assert status == "optimal" and int(iterations) > 0
        assert len(sha) == 16 and int(sha, 16) >= 0
