"""Shared plumbing for the end-to-end benchmark: statistics, host facts,
child processes, output-check accounting and the result line.

Everything here is program-agnostic; the workload modules hold the
knowledge of what the repro package does.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# Scratch space for stores, queue databases, ready files and span dumps.
# It lives inside the checkout and is listed in the root .gitignore.
WORK = os.path.join(ROOT, ".perfbench_work")

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < pct <= 100)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return float(xs[rank - 1])


def highest_supported_pct(n: int, beyond: int = TAIL_BEYOND) -> "float | None":
    """The highest percentile that leaves ``beyond`` samples above it.

    With nearest rank, percentile ``p`` of ``n`` samples is the sample at
    rank ``ceil(p n / 100)``; ``n - rank`` samples lie beyond it.  The
    highest ``p`` with ``n - rank >= beyond`` is ``100 (n - beyond) / n``.
    """
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def tail(samples, target_pct: float) -> dict:
    """Median plus the tail percentile the sample count supports.

    The tail is ``target_pct`` when at least ten samples lie beyond it,
    else the highest percentile that does (the median when even that
    is unsupported).  The percentile used and the sample count are
    reported with the values.
    """
    n = len(samples)
    best = highest_supported_pct(n)
    if best is None:
        pct = 50.0
    else:
        pct = min(target_pct, best)
    return {
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, pct),
        "tail_pct": pct,
        "target_pct": target_pct,
        "n": n,
    }


def windowed_tail(samples, target_pct: float) -> dict:
    """Median over consecutive windows of each window's tail percentile.

    Each window holds the fewest samples that still leave ten beyond
    ``target_pct`` (1000 for a p99), so every window's tail obeys the
    percentile rule; the median across windows keeps one burst of host
    noise from deciding the figure.  Samples must be in arrival order.
    """
    size = math.ceil(TAIL_BEYOND * 100.0 / (100.0 - target_pct))
    n_windows = len(samples) // size
    if n_windows < 1:
        t = tail(samples, target_pct)
        t["windows"] = 0
        return t
    tails = [
        percentile(samples[i * size : (i + 1) * size], target_pct)
        for i in range(n_windows)
    ]
    return {
        "p50": percentile(samples, 50.0),
        "tail": statistics.median(tails),
        "tail_pct": target_pct,
        "target_pct": target_pct,
        "n": n_windows * size,
        "windows": n_windows,
    }


# ----------------------------------------------------------------------
# Output-check accounting
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations, with the reasons for failures.

    Every checked output and every operation the program can refuse
    (a push answered busy/shed/error, a job requeued, quarantined or
    fenced off) is one attempt; ``error_ratio`` is failed / attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "dict[str, int]" = {}

    def check(self, ok: bool, reason: str, n: int = 1) -> bool:
        """Count ``n`` attempts; all of them fail when ``ok`` is false."""
        self.attempted += n
        if not ok:
            self.failed += n
            self.reasons[reason] = self.reasons.get(reason, 0) + n
        return ok

    def fail(self, reason: str, n: int = 1) -> None:
        """Count ``n`` attempts that failed."""
        self.check(False, reason, n)

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
_BURN = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range({n}):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def _burn(n_procs: int, n_iter: int) -> float:
    """Slowest of ``n_procs`` concurrent pure-Python CPU burns, seconds."""
    code = _BURN.format(n=n_iter)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        for _ in range(n_procs)
    ]
    times = [float(p.communicate()[0]) for p in procs]
    return max(times)


def cpu_burn(n_iter: int = 3_000_000) -> "tuple[float, float]":
    """One-process burn seconds and the 2-process parallel capacity.

    The burn time tracks the host's single-core speed at the time of the
    run; a capacity of 2.0 means two independent Python processes really
    run in parallel, near 1.0 that the host time-slices them on one core.
    """
    single = _burn(1, n_iter)
    double = _burn(2, n_iter)
    return single, 2.0 * single / double


def host_info() -> dict:
    """Facts that decide whether two runs are comparable."""
    import numpy

    burn_s, capacity = cpu_burn()
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_burn_1proc_s": round(burn_s, 4),
        "parallel_capacity_2proc": round(capacity, 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src``, and
    no fault plan inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    return env


def repro_command(args: "list[str]", spans: "str | None" = None) -> "list[str]":
    """``python -m repro ARGS``, or the tracing launcher when ``spans``."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, os.path.join(HERE, "launch.py"), spans, *args]


def spawn(cmd: "list[str]", log_path: str, ready: str) -> subprocess.Popen:
    """Start a child writing stdout+stderr to ``log_path``; a stale
    ``ready`` file from an earlier child is removed first."""
    if os.path.exists(ready):
        os.remove(ready)
    log = open(log_path, "w")
    try:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=log,
            stderr=subprocess.STDOUT, text=True,
        )
    finally:
        log.close()  # the child holds its own descriptor


def wait_ready(procs_files, n_lines: int = 1, timeout_s: float = 120.0):
    """Block until every ``(proc, ready_file)`` wrote its ready file.

    Returns each ready file's lines.  Workers write their pid line;
    ``serve`` and ``dispatch`` add a ``host port`` line, so callers pass
    ``n_lines=2`` for them.  A child that exits first, or a timeout,
    raises.
    """
    deadline = time.monotonic() + timeout_s
    pending = list(procs_files)
    contents: "dict[str, list[str]]" = {}
    while pending:
        for proc, path in list(pending):
            if os.path.exists(path):
                with open(path) as fh:
                    lines = fh.read().split("\n")
                if len(lines) > n_lines:  # every line newline-terminated
                    contents[path] = lines[:n_lines]
                    pending.remove((proc, path))
                    continue
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{proc.args!r} exited {proc.returncode} before "
                    "becoming ready"
                )
        if time.monotonic() > deadline:
            raise RuntimeError("children never became ready")
        time.sleep(0.002)
    return [contents[path] for _, path in procs_files]


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def cpu_seconds_children() -> float:
    """CPU time of every terminated and waited-for child."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def stop(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """SIGTERM, wait, SIGKILL on timeout; returns the exit code."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def kill_all(procs) -> None:
    """Hard-stop children left over by a failure; always reaps them."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait()


class RssPeak:
    """Peak RSS of the generator plus the children alive together.

    ``sample`` records each live child's high-water mark (VmHWM only
    grows, so the last sample before a child exits is its peak);
    ``fleet`` closes one group of concurrently alive children and keeps
    the largest sum of their peaks seen over the run.
    """

    def __init__(self) -> None:
        self.children_mb = 0.0
        self._peaks: "dict[int, float]" = {}

    def sample(self, procs) -> None:
        for p in procs:
            if p.poll() is None:
                self._peaks[p.pid] = max(self._peaks.get(p.pid, 0.0), peak_rss_mb(p.pid))

    def fleet(self, procs) -> None:
        """Close one fleet of children that ran together."""
        self.sample(procs)
        total = sum(self._peaks.get(p.pid, 0.0) for p in procs)
        self.children_mb = max(self.children_mb, total)

    def total_mb(self) -> float:
        return peak_rss_mb("self") + self.children_mb


# ----------------------------------------------------------------------
# Import probe
# ----------------------------------------------------------------------
_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro, repro.analysis.experiments\n"
    "print(time.perf_counter() - t, int('scipy' in sys.modules))\n"
)


def import_probe(n: int = 3) -> "tuple[float, int]":
    """Cold ``import repro`` in ``n`` fresh interpreters.

    Returns the median seconds and whether the import loaded scipy.
    """
    runs = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        runs.append((float(out[0]), int(out[1])))
    return statistics.median(r[0] for r in runs), runs[0][1]


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def emit(tally: Tally, metrics: "dict[str, tuple[float, str]]", correct: bool) -> None:
    """Print the one-line JSON result (the last line of stdout)."""
    body = {
        "correct": bool(correct),
        "attempted": int(max(tally.attempted, 1)),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(body), flush=True)


def note(message: str) -> None:
    """Human-readable progress on stderr (stdout carries the record)."""
    print(message, file=sys.stderr, flush=True)
