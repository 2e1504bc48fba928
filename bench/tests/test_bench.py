"""Self-test of the benchmark: every workload at its smallest size, untraced
and traced, in a fresh interpreter, as the benchmark command runs."""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, out_dir):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out_dir = tmp_path_factory.mktemp(f"{workload}-{trace}")
            proc = run_bench(ROOT, workload, trace, out_dir)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((out_dir / f"{workload}-seed3-trace{trace}-tiny.json").read_text())
            out[workload, trace] = (result, record)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_reported(results, workload, trace):
    result, record = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    env = record["env"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QMB_THREADS"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_iterations_match_reported(results, workload):
    result, record = results[workload, 1]
    its = record["iterations"]
    assert its["traced"] == result["metrics"]["sdp_core.solve.iterations"]["value"]
    assert its["traced"] > 0
    assert its["traced"] == its["bound_calls"] + its["solve_sdp_lines"]
    serial_env = record["serial"]["env"]["threads"]
    assert set(serial_env.values()) == {"1"}


def test_small_grid_reports_its_known_failure(results):
    result, record = results["small-grid", 1]
    assert result["metrics"]["failed_ops"]["value"] == 1
    assert {f["op"] for f in record["failed_ops"]} == {"nh pd xyz eps=0.99"}
    untraced, _ = results["small-grid", 0]
    assert untraced["metrics"]["ok_ratio"]["value"] < 1.0
    for workload in ("large-ladder", "file-verify"):
        assert results[workload, 1][0]["metrics"]["failed_ops"]["value"] == 0


def test_tracer_restores_every_function():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import qmbounds
        from tracer import MODULES, Tracer

        namespaces = [qmbounds] + [importlib.import_module(f"qmbounds.{m}") for m in MODULES]
        before = [dict(vars(ns)) for ns in namespaces]
        runners = dict(qmbounds.cli.RUNNERS)
        tracer = Tracer()
        tracer.install(qmbounds)
        assert qmbounds.bound_builders.solve.bench_span == "sdp_core.solve"
        assert qmbounds.cli.RUNNERS["sweep"].bench_span == "cli.run_sweep"
        tracer.uninstall()
        for ns, saved in zip(namespaces, before):
            assert all(vars(ns)[k] is v for k, v in saved.items())
        assert qmbounds.cli.RUNNERS == runners
    finally:
        del sys.path[:2]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "small-grid", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
