"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of the qmbounds modules, plus a few
named private helpers, from outside the package. Each wrapped call records
one span: name, start, end, parent span and request id. Spans stay in
memory; `metrics()` reduces them to per-layer numbers and `dump()` writes
them out when the run ends.

A module that imports a name (`from .sdp_core import solve`) holds its own
reference, so patching only the defining module would miss those calls.
`install()` therefore replaces every reference to a wrapped function it
finds in the package namespaces and in their module-level dicts (such as
`cli.RUNNERS`), and `uninstall()` puts each original back.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import json
import re
import statistics
import threading
import time
import tracemalloc

MODULES = ("model", "linalg", "bound_builders", "sdp_core", "measurement", "cli")

# Private helpers that the per-layer table names.
EXTRA = {
    "bound_builders": ("_unbiasedness_errors", "_schur_floor"),
}

SDP_BOUND_CALLS = ("bound_builders.holevo_bound", "bound_builders.nagaoka_hayashi_bound")
# Spans that start a request when no request is open in their thread.
BOUND_CALLS = SDP_BOUND_CALLS + ("model.sld_bound",)

# Spans whose peak traced allocation is recorded.
MEMORY_SPANS = (
    "bound_builders.build_holevo_sdp",
    "bound_builders.build_nh_sdp",
    "sdp_core.solve",
)

RECOVERY = (
    "bound_builders.recover_nh_estimators",
    "bound_builders._unbiasedness_errors",
    "bound_builders._schur_floor",
)

_ITER_RE = re.compile(r"iterations (\d+)")


class Span:
    __slots__ = ("id", "name", "parent", "request", "thread", "start", "end", "info")

    def __init__(self, sid, name, parent, request, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None
        self.info = None


class Tracer:
    """Records spans; with `memory=True` it also records the peak traced
    allocation of the MEMORY_SPANS. tracemalloc slows allocation-heavy
    Python loops by half or more, so timing passes run without it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._mem_lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, new_request: bool) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a pool worker: the caller blocked in the main thread owns it
            parent = self._main_stack[-1]
        else:
            parent = None
        request = parent.request if parent is not None else None
        if request is None and new_request:
            request = next(self._requests)
        span = Span(
            next(self._ids),
            name,
            parent.id if parent is not None else None,
            request,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def request(self, name: str):
        """One benchmark op as one request."""
        span = self._open(name, new_request=True)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        tracer = self
        starts_request = name in BOUND_CALLS
        tracks_memory = self.memory and name in MEMORY_SPANS
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, starts_request)
            owns_memory = tracks_memory and tracer._mem_enter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if probe is not None:
                    probe(span, None, exc)
                raise
            else:
                if probe is not None:
                    probe(span, out, None)
                return out
            finally:
                if owns_memory:
                    tracer._mem_exit(span)
                tracer._close(span)

        traced.bench_span = name
        return traced

    # tracemalloc is process-wide: one span at a time owns it, and a span
    # that finds it taken records no peak.
    def _mem_enter(self) -> bool:
        if tracemalloc.is_tracing() or not self._mem_lock.acquire(blocking=False):
            return False
        tracemalloc.start()
        return True

    def _mem_exit(self, span: Span) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self._mem_lock.release()
        _info(span)["peak_mb"] = peak / 2**20

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES
        }
        wrappers = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = inspect.isfunction(obj) and not attr.startswith("_")
                if public and obj.__module__ == mod.__name__ or attr in EXTRA.get(modname, ()):
                    wrappers[id(obj)] = self.wrap(f"{modname}.{attr}", obj)
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patches.append((setattr, ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patches.append((dict.__setitem__, obj, key, val))
                            obj[key] = wrappers[id(val)]

    def uninstall(self) -> None:
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = (s.end - s.start) - covered
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers over every span recorded so far."""
        selfs = self.self_times()
        index = {s.id: s for s in self.spans}
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(*names):
            return [s for n in names for s in by_name.get(n, ())]

        def total(*names):
            return sum(s.end - s.start for s in spans(*names))

        def own(*names):
            return sum(selfs[s.id] for s in spans(*names))

        def peak(*names):
            vals = [s.info["peak_mb"] for s in spans(*names) if s.info and "peak_mb" in s.info]
            return max(vals, default=0.0)

        if self.memory:
            return {
                "sdp_core.solve.peak_mb": peak("sdp_core.solve"),
                "bound_builders.build.peak_mb": peak(
                    "bound_builders.build_holevo_sdp", "bound_builders.build_nh_sdp"
                ),
            }

        made = spans("sdp_core.make_problem")
        rows_in = sum(s.info["rows_in"] for s in made if s.info)
        rows_kept = sum(s.info["rows_kept"] for s in made if s.info)
        solves = spans("sdp_core.solve")
        iters = sum(s.info["iterations"] for s in solves if s.info)
        optimal = sum(1 for s in solves if s.info and s.info["status"] == "optimal")
        solve_s = total("sdp_core.solve")
        latencies = sorted(1e3 * (s.end - s.start) for s in spans(*SDP_BOUND_CALLS))
        cli_s = total("cli.main")
        bound_in_cli = sum(
            s.end - s.start
            for s in spans(*BOUND_CALLS)
            if _has_ancestor(s, "cli.main", index)
        )
        return {
            "sdp_core.make_problem.s": total("sdp_core.make_problem"),
            "sdp_core.make_problem.calls": len(made),
            "sdp_core.rows_in": rows_in,
            "sdp_core.rows_kept_ratio": rows_kept / rows_in if rows_in else 1.0,
            "sdp_core.solve.s": solve_s,
            "sdp_core.solve.calls": len(solves),
            "sdp_core.solve.iterations": iters,
            "sdp_core.solve.s_per_iter": solve_s / iters if iters else 0.0,
            "sdp_core.solve.optimal_ratio": optimal / len(solves) if solves else 1.0,
            "bound_builders.build_holevo_sdp.self_s": own("bound_builders.build_holevo_sdp"),
            "bound_builders.build_nh_sdp.self_s": own("bound_builders.build_nh_sdp"),
            "linalg.realify.calls": len(spans("linalg.realify")),
            "linalg.realify.s": total("linalg.realify"),
            "bound_builders.recover.self_s": own(*RECOVERY),
            "model.sld.s": total("model.sld"),
            "bound.latency_ms.p50": statistics.median(latencies) if latencies else 0.0,
            "bound.latency_ms.p95": _p95(latencies),
            "bound.latency_ms.samples": len(latencies),
            "sdp_core.read_sdpa.self_s": own("sdp_core.read_sdpa"),
            "sdp_core.write_sdpa.s": total("sdp_core.write_sdpa"),
            "sdp_core.check_certificate.s": total("sdp_core.check_certificate"),
            "measurement.s": sum(
                s.end - s.start
                for s in self.spans
                if s.name.startswith("measurement.")
                and not _has_ancestor(s, "measurement.", index, prefix=True)
            ),
            "cli.pool_overlap": bound_in_cli / cli_s if cli_s else 0.0,
            "cli.self_s": sum(selfs[s.id] for s in self.spans if s.name.startswith("cli.")),
        }

    def request_profile(self, top: int = 4) -> list[dict]:
        """Per request: its root span's name and duration, and the span
        names with the most self time inside it."""
        selfs = self.self_times()
        by_request: dict[int, dict[str, float]] = {}
        roots = {}
        for s in self.spans:
            if s.request is None:
                continue
            acc = by_request.setdefault(s.request, {})
            acc[s.name] = acc.get(s.name, 0.0) + selfs[s.id]
            root = roots.get(s.request)
            if root is None or s.start < root.start:
                roots[s.request] = s
        return [
            {
                "request": rid,
                "name": roots[rid].name,
                "s": roots[rid].end - roots[rid].start,
                "self_s": dict(sorted(acc.items(), key=lambda kv: -kv[1])[:top]),
            }
            for rid, acc in sorted(by_request.items())
        ]

    def reported_iterations(self) -> int:
        """Iterations the bound calls themselves reported (solver_stats, or
        the count in a BoundError message)."""
        return sum(
            s.info["reported_iterations"]
            for s in self.spans
            if s.name in SDP_BOUND_CALLS and s.info and "reported_iterations" in s.info
        )

    def dump(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        threads = {}
        rows = [
            [
                s.id,
                code[s.name],
                s.parent,
                s.request,
                threads.setdefault(s.thread, len(threads)),
                round(s.start, 9),
                round(s.end, 9),
            ]
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        payload = {
            "columns": ["id", "name", "parent", "request", "thread", "start", "end"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _info(span: Span) -> dict:
    if span.info is None:
        span.info = {}
    return span.info


def _has_ancestor(span, name, index, prefix=False) -> bool:
    pid = span.parent
    while pid is not None:
        anc = index.get(pid)
        if anc is None:
            return False
        if anc.name.startswith(name) if prefix else anc.name == name:
            return True
        pid = anc.parent
    return False


def _p95(sorted_vals) -> float:
    if len(sorted_vals) < 2:
        return sorted_vals[0] if sorted_vals else 0.0
    return statistics.quantiles(sorted_vals, n=20, method="inclusive")[18]


def _probe_problem(span, out, exc):
    if out is not None:
        _info(span).update(rows_in=out.num_constraints + out.dropped, rows_kept=out.num_constraints)


def _probe_solve(span, out, exc):
    if out is not None:
        _info(span).update(iterations=out.iterations, status=out.status)


def _probe_bound(span, out, exc):
    if out is not None:
        _info(span)["reported_iterations"] = int(out.solver_stats["iterations"])
        return
    match = _ITER_RE.search(str(exc))
    if match:
        _info(span)["reported_iterations"] = int(match.group(1))


_PROBES = {
    "sdp_core.make_problem": _probe_problem,
    "sdp_core.solve": _probe_solve,
    "bound_builders.holevo_bound": _probe_bound,
    "bound_builders.nagaoka_hayashi_bound": _probe_bound,
}
