"""Benchmark of the qmbounds bound pipeline.

    python3 bench/run.py --workload large-ladder --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. With `--trace 0` it sets up (import plus inputs), runs timed passes
of the workload until `--seconds` would be exceeded (at least one), checks
every op and prints the end-to-end metrics. With `--trace 1` it runs one
untraced pass, one traced pass and one single-threaded traced pass in a
child process, and prints the per-layer metrics. The last line of standard
output is the JSON result; a record with the environment and the failed
ops goes to `bench/out/`. See bench/README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QMB_THREADS")
SERIAL_KEYS = (
    "wall_s",
    "holevo_s",
    "nh_s",
    "sdp_core.make_problem.s",
    "sdp_core.solve.s",
    "sdp_core.solve.s_per_iter",
    "bound_builders.build_holevo_sdp.self_s",
    "bound_builders.build_nh_sdp.self_s",
    "cli.pool_overlap",
)
MEMORY_KEYS = ("sdp_core.solve.peak_mb", "bound_builders.build.peak_mb")
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    p.add_argument("--out", default=None, help="directory for the run record (default bench/out)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--serial-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, extra, env=None):
    """Run this script again in a fresh interpreter; return its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - _T0))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_counts(workload_name, passes, known):
    ops = sum(len(p.ops) for p in passes)
    failed = [(i, op) for i, p in enumerate(passes) for op in p.ops if not op.ok]
    unexpected = [(i, op) for i, op in failed if (workload_name, op.name) not in known]
    return ops, failed, unexpected


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmbounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import KNOWN_FAILURES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out) if args.out else BENCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        inputs = workload.setup(args.seed, args.tiny, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps(setup_s))
            return 0
        if args.serial_child:
            return serial_child(args, workload, inputs)
        if args.trace:
            return traced_run(args, workload, inputs, out_dir, KNOWN_FAILURES)
        return timed_run(args, workload, inputs, setup_s, out_dir, KNOWN_FAILURES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, workload, inputs, setup_s, out_dir, known) -> int:
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run(inputs))
        used = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and used + passes[-1].elapsed_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = [setup_s] + [
        run_child(args, ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)
    ]
    ops, failed, unexpected = op_counts(workload.name, passes, known)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "holevo_s": statistics.median(p.holevo_s for p in passes),
        "nh_s": statistics.median(p.nh_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ops": len(passes[0].ops),
        "ok_ratio": (ops - len(failed)) / ops,
    }
    record = {
        "passes": [
            {"wall_s": p.wall_s, "holevo_s": p.holevo_s, "nh_s": p.nh_s, "elapsed_s": p.elapsed_s}
            for p in passes
        ],
        "setup_samples_s": setup_samples,
    }
    return report(args, workload, metrics, ops, failed, unexpected, len(passes), record, out_dir)


def traced_run(args, workload, inputs, out_dir, known) -> int:
    import qmbounds
    from tracer import Tracer

    untraced = workload.run(inputs)
    tracer = Tracer()
    tracer.install(qmbounds)
    try:
        traced = workload.run(inputs, tracer)
    finally:
        tracer.uninstall()
    serial_env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    serial = run_child(args, ["--trace", "1", "--serial-child"], env=serial_env)

    passes = [untraced, traced]
    ops, failed, unexpected = op_counts(workload.name, passes, known)
    metrics = {
        "failed_ops": len(failed) / len(passes),
        "fail_ratio": len(failed) / ops,
        "untraced.wall_s": untraced.wall_s,
        "trace.wall_s": traced.wall_s,
        "trace.holevo_s": traced.holevo_s,
        "trace.nh_s": traced.nh_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        **tracer.metrics(),
        **{key: serial["metrics"][key] for key in MEMORY_KEYS},
        **{f"serial.{key}": serial["metrics"][key] for key in SERIAL_KEYS},
    }
    stem = run_stem(args)
    tracer.dump(out_dir / f"{stem}.spans.json.gz")
    record = {
        "iterations": {
            "traced": metrics["sdp_core.solve.iterations"],
            "bound_calls": tracer.reported_iterations(),
            "solve_sdp_lines": traced.solve_sdp_iterations,
        },
        "requests": tracer.request_profile(),
        "serial": serial,
    }
    return report(args, workload, metrics, ops, failed, unexpected, len(passes), record, out_dir)


def serial_child(args, workload, inputs) -> int:
    """One traced timing pass, then one pass that records peak memory."""
    import qmbounds
    from tracer import Tracer

    metrics = {}
    for tracer in (Tracer(), Tracer(memory=True)):
        tracer.install(qmbounds)
        try:
            res = workload.run(inputs, tracer)
        finally:
            tracer.uninstall()
        if not tracer.memory:
            metrics.update(wall_s=res.wall_s, holevo_s=res.holevo_s, nh_s=res.nh_s)
        metrics.update(tracer.metrics())
    print(json.dumps({"env": environment(args.seed), "metrics": metrics}))
    return 0


def run_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"


def report(args, workload, metrics, ops, failed, unexpected, n_passes, record, out_dir) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment(args.seed)
    record = {
        "workload": workload.name,
        "args": vars(args),
        "env": env,
        "passes_run": n_passes,
        "ops_attempted": ops,
        "failed_ops": [{"pass": i, "op": op.name, "detail": op.detail} for i, op in failed],
        "metrics": metrics,
        **record,
    }
    (out_dir / f"{run_stem(args)}.json").write_text(json.dumps(record, indent=2, default=str))

    print(f"env {json.dumps(env)}")
    print(f"workload {workload.name}: {n_passes} pass(es), {ops} ops, "
          f"{len(failed)} failed ({len(failed) - len(unexpected)} known), "
          f"fail_ratio {len(failed) / ops:.6g}")
    for i, op in failed:
        tag = "unexpected" if (i, op) in unexpected else "known"
        print(f"  failed ({tag}) pass {i}: {op.name}: {op.detail[:300]}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {units[name]}")
    result = {
        "correct": not unexpected,
        "attempted": ops,
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
