"""Perf-trajectory telemetry: machine-readable benchmark records.

Every ``repro bench`` subcommand appends one JSON record to
``BENCH_<area>.json`` (areas: encoder, rx, link, sweep, cache,
sessions, queue, serve) so the speedups the CI gates assert stop
evaporating between PRs — the committed files *are* the performance
trajectory.  ``repro bench --report`` renders the trajectory and fails
on a >20 % regression of an area's headline metric against its previous
committed point (``BENCH_REGRESSION_PCT`` overrides the threshold).

Record layout (one list per file, append-only)::

    {
      "area": "encoder",
      "recorded_at": "2026-08-08T12:00:00Z",
      "git_sha": "93815be...",            # null outside a git checkout
      "host": {"platform": ..., "machine": ..., "python": ...,
               "numpy": ..., "cpu_count": ...},
      "params": {"signals": 16, "duration": 20.0, ...},
      "spec_keys": {"datc": "<spec.key()>"},
      "rows": [{"name": ..., "time_ms": ..., "throughput": ...,
                "speedup": ...}],
      "headline": {"metric": "batched-vs-loop speedup", "value": 8.1},
      "notes": null
    }

The headline is a *ratio* (speedup), not a wall-clock, so points taken on
different machines stay roughly comparable; the host block is there to
explain the residual scatter.  Files live in ``REPRO_BENCH_DIR`` when
set, else ``./benchmarks`` when that directory exists (the repo layout),
else the working directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "AREAS",
    "TelemetryError",
    "append_record",
    "bench_dir",
    "git_sha",
    "host_info",
    "load_trajectories",
    "make_record",
    "record_path",
    "render_report",
]

AREAS = (
    "encoder",
    "rx",
    "link",
    "sweep",
    "cache",
    "sessions",
    "queue",
    "serve",
)
ENV_DIR = "REPRO_BENCH_DIR"
ENV_REGRESSION_PCT = "BENCH_REGRESSION_PCT"
DEFAULT_REGRESSION_PCT = 20.0
LOCK_TIMEOUT_S = 30.0


class TelemetryError(RuntimeError):
    """A trajectory file is unusable (corrupt, empty, or wrong shape).

    Raised only on the *strict* loading path (``bench --report``), where
    a damaged committed trajectory should be a pointed one-line failure.
    The append path stays lenient — a corrupt file self-heals by being
    rewritten whole.
    """


def bench_dir(explicit: "str | Path | None" = None) -> Path:
    """Where BENCH_*.json records live (flag > env > ./benchmarks > cwd)."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    default = Path("benchmarks")
    return default if default.is_dir() else Path(".")


def record_path(area: str, directory: "str | Path | None" = None) -> Path:
    """The trajectory file of one bench area."""
    if area not in AREAS:
        raise ValueError(f"unknown bench area {area!r}; choose from {AREAS}")
    return bench_dir(directory) / f"BENCH_{area}.json"


def host_info() -> dict:
    """The execution environment a record was taken on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> "str | None":
    """The current commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        )
        return out.stdout.strip() or None
    except Exception:
        return None


def make_record(
    area: str,
    headline_metric: str,
    headline_value: float,
    rows: "list[dict]",
    params: "dict | None" = None,
    spec_keys: "dict | None" = None,
    notes: "str | None" = None,
) -> dict:
    """Assemble one trajectory point (pure data, no I/O besides git)."""
    if area not in AREAS:
        raise ValueError(f"unknown bench area {area!r}; choose from {AREAS}")
    return {
        "area": area,
        "recorded_at": datetime.now(timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z"),
        "git_sha": git_sha(),
        "host": host_info(),
        "params": params or {},
        "spec_keys": spec_keys or {},
        "rows": rows,
        "headline": {
            "metric": headline_metric,
            "value": float(headline_value),
        },
        "notes": notes,
    }


def _load_file(path: Path, strict: bool = False) -> "list[dict]":
    """A trajectory file's records.

    Lenient (default): corrupt or missing files read as empty — the next
    append rewrites the file whole and the trajectory self-heals.
    Strict: a file that *exists* but is unparseable, empty, or not a
    record list raises :class:`TelemetryError` naming the file (a missing
    file still reads as empty — an area never benched is not damage).
    """
    if strict and path.exists():
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise TelemetryError(f"{path}: unreadable ({exc})") from None
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, list) or not all(
            isinstance(r, dict) for r in data
        ):
            raise TelemetryError(
                f"{path}: expected a JSON list of records, got "
                f"{type(data).__name__}"
            )
        if not data:
            raise TelemetryError(f"{path}: holds no records (empty list)")
        return data
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    return data if isinstance(data, list) else []


@contextlib.contextmanager
def _append_lock(path: Path, timeout_s: float = LOCK_TIMEOUT_S):
    """Serialise appends to one trajectory file across processes.

    The append is a read-modify-write of the whole file; atomic replace
    alone keeps it uncorrupted but lets two concurrent queue workers read
    the same base list and silently drop each other's record.  A sidecar
    ``.lock`` file closes that window: ``flock`` where available (held
    locks die with their process, so no staleness), else an ``O_EXCL``
    spin whose stale locks are broken by mtime age.

    Both paths remove the sidecar on release, so a clean run leaves no
    ``.lock`` litter next to the trajectory.  The flock path guards the
    unlink-vs-open race (peer opens the path, we unlink it, peer locks
    an orphaned inode nobody else can see) by re-checking after locking
    that the file on disk is still the one we locked, retrying if not.
    """
    lock_path = path.with_name(path.name + ".lock")
    try:
        import fcntl
    except ImportError:
        fcntl = None
    if fcntl is not None:
        while True:
            fh = open(lock_path, "a+")
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                on_disk = os.stat(lock_path)
            except FileNotFoundError:
                # The previous holder unlinked it between our open and
                # our flock; we hold a lock on an orphan — start over.
                fh.close()
                continue
            if on_disk.st_ino != os.fstat(fh.fileno()).st_ino:
                fh.close()  # same race, path already points elsewhere
                continue
            break
        try:
            yield
        finally:
            # Unlink while still holding the lock: any peer that opened
            # the old inode will detect the swap and retry above.
            try:
                os.unlink(lock_path)
            except OSError:
                pass
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            fh.close()
        return
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                if time.time() - os.stat(lock_path).st_mtime > timeout_s:
                    os.unlink(lock_path)  # holder died; break the lock
                    continue
            except OSError:
                continue  # holder just released; retry immediately
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not acquire {lock_path} within {timeout_s}s"
                ) from None
            time.sleep(0.01)
    try:
        yield
    finally:
        os.close(fd)
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def append_record(record: dict, directory: "str | Path | None" = None) -> Path:
    """Append one record to its area's BENCH_<area>.json.

    Safe under concurrent writers (multiple queue workers recording at
    once): the read-modify-write runs under :func:`_append_lock` and the
    final write is still an atomic temp-file replace, so records never
    interleave and readers never see a half-written file.
    """
    path = record_path(record["area"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _append_lock(path):
        records = _load_file(path)
        records.append(record)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(records, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return path


def load_trajectories(
    directory: "str | Path | None" = None, strict: bool = False
) -> "dict[str, list[dict]]":
    """All areas' committed records, in file (chronological) order.

    ``strict=True`` (the report path) raises :class:`TelemetryError` on
    a damaged file instead of silently reading it as empty.
    """
    out = {}
    for area in AREAS:
        records = _load_file(record_path(area, directory), strict=strict)
        if records:
            out[area] = records
    return out


def regression_pct() -> float:
    """The allowed headline drop in percent (BENCH_REGRESSION_PCT knob)."""
    return float(os.environ.get(ENV_REGRESSION_PCT, DEFAULT_REGRESSION_PCT))


def render_report(
    trajectories: "dict[str, list[dict]]", allowed_drop_pct: float
) -> "tuple[str, list[str]]":
    """The trajectory table plus the list of regression messages.

    A regression is the latest point's headline value dropping more than
    ``allowed_drop_pct`` percent below the previous committed point of
    the same area (headlines are higher-is-better ratios).
    """
    header = (
        f"{'area':<10}{'points':>7}{'latest':>22}"
        f"{'headline':>42}{'value':>9}{'prev':>9}{'delta':>9}"
    )
    lines = [header, "-" * len(header)]
    regressions: "list[str]" = []
    for area in AREAS:
        records = trajectories.get(area)
        if not records:
            continue
        latest = records[-1]
        value = latest["headline"]["value"]
        metric = latest["headline"]["metric"]
        prev = records[-2]["headline"]["value"] if len(records) > 1 else None
        if prev is None:
            delta_txt = "-"
        else:
            delta = 100.0 * (value - prev) / prev if prev else float("inf")
            delta_txt = f"{delta:+.1f}%"
            if prev > 0 and value < prev * (1.0 - allowed_drop_pct / 100.0):
                regressions.append(
                    f"{area}: headline '{metric}' fell {abs(delta):.1f}% "
                    f"({prev:.2f} -> {value:.2f}); allowed drop is "
                    f"{allowed_drop_pct:.0f}% (BENCH_REGRESSION_PCT)"
                )
        lines.append(
            f"{area:<10}{len(records):>7}{latest['recorded_at']:>22}"
            f"{metric:>42}{value:>9.2f}"
            f"{(f'{prev:.2f}' if prev is not None else '-'):>9}"
            f"{delta_txt:>9}"
        )
    return "\n".join(lines), regressions
