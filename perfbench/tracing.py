"""Span tracing around the program's layer entry points.

Wrappers are installed from outside the program: each target names a
module and the attribute the program looks the entry point up by (a
module global such as ``repro.api.encode_batch``, or a class attribute
such as ``ResultStore.put``), and the wrapper replaces it there.  A
span records its name, parent, wall interval and the CPU time of its
thread; spans stay in memory and are dumped as JSON once the traced
process is done.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Coverage is the share of all CPU time
(the traced processes together) that falls inside some span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

RPC_VERBS = (
    "hello", "submit", "claim", "heartbeat", "complete",
    "counts", "rows", "store_get", "store_put",
)
DISPATCHER_VERBS = (
    "submit", "claim", "heartbeat", "complete", "fail", "release",
    "reap", "reset", "counts", "rows",
)


class TraceError(RuntimeError):
    """A traced run did not exercise an entry point it wraps."""


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self, role: str = "generator") -> None:
        self.role = role
        self.spans: "list[tuple]" = []  # (id, parent, name, t0, t1, c0, c1)
        self.counts: "dict[str, float]" = {}
        self.maxima: "dict[str, float]" = {}
        self.state: dict = {}
        self.on_dump: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: "list[tuple]" = []
        self.t0 = time.perf_counter()
        self.cpu0 = time.process_time()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, fn, name, after=None):
        """``fn`` recording one span per call; ``name`` may be a callable
        of ``(args, kwargs)``; ``after(recorder, args, kwargs, result)``
        runs once the call returned."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                rec.spans.append((sid, parent, label, t0, t1, c0, c1))
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def hook(self, fn, after):
        """``fn`` running ``after(recorder, args, kwargs, result)``; no span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, args, kwargs, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, module: str, attr: str, replace) -> None:
        """Replace ``module.attr`` (``Class.method`` allowed) by
        ``replace(original)``."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = (
            owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        )
        setattr(owner, leaf, replace(original))
        self._patches.append((owner, leaf, original))

    def install(self, targets) -> None:
        """Install ``(module, attr, name, after)`` span targets; ``name``
        None installs ``after`` as a span-less hook."""
        for module, attr, name, after in targets:
            if name is None:
                self.patch(module, attr, lambda fn, a=after: self.hook(fn, a))
            else:
                self.patch(
                    module, attr, lambda fn, n=name, a=after: self.wrap(fn, n, a)
                )

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def dump(self) -> dict:
        for callback in self.on_dump:
            callback(self)
        return {
            "role": self.role,
            "pid": os.getpid(),
            "wall_s": time.perf_counter() - self.t0,
            "cpu_s": time.process_time() - self.cpu0,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# ----------------------------------------------------------------------
# Self time and the layer table
# ----------------------------------------------------------------------
def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> "dict[int, tuple[float, float]]":
    """Per span id: (self wall seconds, self CPU seconds)."""
    children: "dict[int, list]" = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for sid, _parent, _name, t0, t1, c0, c1 in spans:
        kids = children.get(sid, [])
        wall = (t1 - t0) - _covered(t0, t1, [(k[3], k[4]) for k in kids])
        cpu = (c1 - c0) - sum(k[6] - k[5] for k in kids)
        out[sid] = (max(wall, 0.0), max(cpu, 0.0))
    return out


def layer_table(dumps) -> dict:
    """Aggregate span dumps (one per process) into per-name rows.

    Each row holds ``calls``, ``incl_ms`` (summed durations), ``self_ms``
    (summed self time) and ``self_cpu_ms``.  ``cpu_ms`` is the traced
    processes' CPU time, ``covered_cpu_ms`` the part inside spans, and
    ``uncovered_cpu_ms`` the remainder.
    """
    rows: "dict[str, dict]" = {}
    counts: "dict[str, float]" = {}
    maxima: "dict[str, float]" = {}
    cpu = covered = 0.0
    for dump in dumps:
        cpu += dump["cpu_s"]
        selfs = self_times(dump["spans"])
        for sid, _parent, name, t0, t1, _c0, _c1 in dump["spans"]:
            wall_self, cpu_self = selfs[sid]
            row = rows.setdefault(
                name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "self_cpu_ms": 0.0}
            )
            row["calls"] += 1
            row["incl_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += wall_self * 1e3
            row["self_cpu_ms"] += cpu_self * 1e3
            covered += cpu_self
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, v in dump["maxima"].items():
            maxima[name] = max(maxima.get(name, v), v)
    return {
        "rows": rows,
        "counts": counts,
        "maxima": maxima,
        "cpu_ms": cpu * 1e3,
        "covered_cpu_ms": min(covered, cpu) * 1e3,
        "uncovered_cpu_ms": max(cpu - covered, 0.0) * 1e3,
    }


def require_called(table: dict, names) -> None:
    """Raise unless every span name in ``names`` was recorded at least once."""
    missing = sorted(n for n in names if table["rows"].get(n, {}).get("calls", 0) == 0)
    if missing:
        raise TraceError(
            "traced run never called the wrapped entry point(s): "
            + ", ".join(missing)
            + " (renamed or bypassed? update perfbench/tracing.py targets)"
        )


def format_table(table: dict, overhead_s: float) -> str:
    """The layer table as text: self time, calls, and the remainder row."""
    lines = [f"{'layer':<36}{'calls':>8}{'self ms':>12}{'self cpu ms':>13}"]
    for name, row in sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(
            f"{name:<36}{row['calls']:>8}{row['self_ms']:>12.1f}"
            f"{row['self_cpu_ms']:>13.1f}"
        )
    lines.append(
        f"{'(uncovered cpu)':<36}{'':>8}{'':>12}{table['uncovered_cpu_ms']:>13.1f}"
    )
    cov = table["covered_cpu_ms"] / table["cpu_ms"] if table["cpu_ms"] else 0.0
    lines.append(f"coverage {cov:.3f} of {table['cpu_ms']:.0f} cpu ms; "
                 f"tracing overhead {overhead_s:+.3f} cpu s")
    for name, n in sorted(table["counts"].items()):
        lines.append(f"count {name} = {n:g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Targets: where each layer's entry point is looked up
# ----------------------------------------------------------------------
def _count_pattern(rec, args, kwargs, result):
    rec.count("signals.patterns_synthesized")


def _store_hit(rec, args, kwargs, result):
    rec.count("runtime.store.hits" if result is not None else "runtime.store.misses")


def _useful_claim(rec, args, kwargs, result):
    if result is not None:
        rec.count("runtime.queue.useful_claims")


def _track_channel(rec, args, kwargs, result):
    channels = rec.state.setdefault("channels", [])
    if not channels:
        rec.on_dump.append(
            lambda r: r.counts.__setitem__(
                "runtime.transport.reconnects",
                sum(ch.reconnects for ch in r.state["channels"]),
            )
        )
    channels.append(args[0])


def _session_rows(rec, args, kwargs, result):
    rows = len(args[1])
    rec.count("runtime.sessions.rows", rows)
    server = rec.state.get("server")
    if server is not None:
        # The pump dequeues this pass's chunks before push_many.
        rec.maximum("runtime.server.pending_max", server.n_pending_chunks + rows)


def _capture_server(rec, args, kwargs, result):
    rec.state["server"] = args[0]


SWEEP_TARGETS = [
    ("repro.signals.dataset", "DatasetSpec.pattern", "signals.pattern", _count_pattern),
    ("repro.signals.dataset", "random_grip_protocol", "signals.force", None),
    ("repro.signals.dataset", "mvc_grip_protocol", "signals.force", None),
    ("repro.signals.force", "smooth_profile", "signals.smooth_profile", None),
    ("repro.signals.dataset", "synthesize_emg", "signals.emg", None),
    ("repro.signals.dataset", "Pattern.ground_truth_envelope", "signals.envelope", None),
    ("repro.api", "encode_batch", "core.encode", None),
    ("repro.api", "simulate_link_batch", "uwb.link", None),
    ("repro.api", "reconstruct_batch", "rx.decode", None),
    ("repro.api", "aligned_correlation_percent_batch", "rx.score", None),
    ("repro.api", "Experiment.dataset_sweep", "api.dataset_sweep", None),
    ("repro.api", "Experiment.run", "api.run", None),
]
STORE_TARGETS = [
    ("repro.runtime.store", "ResultStore.put", "runtime.store.put", None),
    ("repro.runtime.store", "ResultStore.get", "runtime.store.get", _store_hit),
]
TRANSPORT_TARGETS = [
    ("repro.runtime.transport", "DispatchChannel.rpc",
     lambda args, kwargs: f"runtime.transport.rpc.{args[1]}", None),
    ("repro.runtime.transport", "DispatchChannel.__init__", None, _track_channel),
]
QUEUE_TARGETS = [
    ("repro.runtime.queue", "ExperimentQueue.claim", "runtime.queue.claim", _useful_claim),
    ("repro.runtime.queue", "ExperimentQueue.complete", "runtime.queue.complete", None),
]
DISPATCHER_TARGETS = [
    ("repro.runtime.queue", f"SqliteBackend.{verb}", "runtime.dispatcher.backend", None)
    for verb in DISPATCHER_VERBS
]
SERVE_TARGETS = [
    ("repro.runtime.sessions", "SessionBatch.push_many", "runtime.sessions.push", _session_rows),
    ("repro.runtime.server", "unpack_floats", "runtime.server.unpack", None),
    ("repro.runtime.server", "SessionServer.__init__", None, _capture_server),
]
CLIENT_TARGETS = [
    ("repro.runtime.server", "pack_array", "runtime.client.pack", None),
]


def install_worker_sleep(rec: Recorder) -> None:
    """Route ``run_worker``'s public ``sleep`` hook through a span."""
    timed_sleep = rec.wrap(time.sleep, "runtime.queue.idle_sleep")

    def replace(run_worker):
        @functools.wraps(run_worker)
        def traced(*args, **kwargs):
            kwargs.setdefault("sleep", timed_sleep)
            return run_worker(*args, **kwargs)

        return traced

    rec.patch("repro.runtime.queue", "run_worker", replace)


def install_role(rec: Recorder, role: str) -> None:
    """Install the targets of one process role."""
    if role == "worker":
        rec.install(SWEEP_TARGETS + STORE_TARGETS + TRANSPORT_TARGETS + QUEUE_TARGETS)
        install_worker_sleep(rec)
    elif role == "dispatch":
        rec.install(STORE_TARGETS + DISPATCHER_TARGETS)
    elif role == "serve":
        rec.install(SERVE_TARGETS)
    else:
        raise ValueError(f"unknown role {role!r}")
