"""Fault-tolerant distributed experiment queue (sqlite-WAL jobs table).

The spec + store layer made every experiment a deterministic function of
``(spec.key(), data fingerprint)``; this module adds the missing piece of
multi-node dispatch: a *jobs table* any number of workers can pull open
shards from, with all the machinery the happy path doesn't need until a
worker dies mid-shard.

One sqlite database (WAL mode, so N processes read while one writes)
holds one row per job, keyed ``(spec_key, fingerprint)`` — the same pair
the :class:`~repro.runtime.store.ResultStore` addresses results by.  The
status lifecycle::

            submit                claim(worker)
    (new) ---------> open -------------------------> leased
                      ^                                |
                      |  retry w/ backoff (transient)  |-- complete --> done
                      |<-------------------------------|
                      |         lease expired          |-- fail ------+
                      |<-------------------------------|              |
                      |                                               v
                      +------------------ reset ------------------- error
                                                               (quarantined)

* **Leases, not locks.**  ``claim`` marks a row ``leased`` with the
  worker's id, a heartbeat timestamp and a lease duration.  Workers
  heartbeat while executing; a worker that is SIGKILLed simply stops
  heartbeating, and any peer's next ``claim`` reclaims the expired row
  (``reap``).  No coordinator process exists to crash.
* **Fencing.**  Every downstream transition (``heartbeat``, ``complete``,
  ``fail``, ``release``) is conditional on *still holding the lease*: a
  stalled worker whose shard was reclaimed cannot mark the row done out
  from under the peer that re-ran it.  Result writes need no fencing —
  store entries are content-addressed and idempotent.
* **Retries vs quarantine.**  A failed attempt re-opens the row with
  capped exponential backoff plus deterministic jitter until
  ``max_attempts`` is exhausted; then the row is quarantined
  (``status='error'``) with the worker's full formatted traceback logged
  in the row.  Transient faults therefore succeed on a later attempt
  while deterministic bugs stop burning CPU after ``max_attempts``
  tries; ``reset()`` (CLI: ``repro queue reset``) re-opens quarantined
  rows after the bug is fixed.  :meth:`ExperimentQueue.raise_first_error`
  re-raises a quarantined failure with the logged traceback chained on
  as a :class:`~repro.runtime.executors.RemoteTraceback` ``__cause__`` —
  the same convention the process backend uses.

Since PR 10 the lifecycle contract lives in
:class:`~repro.runtime.transport.QueueBackend`: :class:`SqliteBackend`
(here) is the storage engine, :class:`ExperimentQueue` is a thin
frontend over *any* backend — pass a path and get sqlite, pass a
:class:`~repro.runtime.transport.RemoteBackend` and the identical
semantics run against a ``repro dispatch`` server with no shared mount
(see ``docs/DISPATCH.md``).

Workers (:func:`run_worker`, CLI: ``repro worker``) pull one shard at a
time, execute it through :class:`repro.api.Experiment` and write the
shared store; results are bit-identical to the serial path whatever the
worker count, crash schedule or retry history, because every batched
stage is bit-identical per row and the store returns exactly what one
evaluation produced.  On SIGTERM a worker drains gracefully: it finishes
the shard it is executing, releases any prefetched-but-unstarted leases,
and exits 0.

Every timed method takes an optional ``now`` so tests drive the lease
clock logically; production callers leave it ``None`` (wall clock).
"""

from __future__ import annotations

import functools
import json
import os
import signal
import socket
import sqlite3
import threading
import time
import traceback
import uuid
from dataclasses import dataclass

import numpy as np

from .executors import plan_shards
from .faults import FaultPlan, InjectedFault
from .store import ResultStore
from .transport import (
    Job,
    QueueBackend,
    RemoteBackend,
    RemoteStore,
    _backoff_jitter,
    check_wait_s,
    drained,
)

__all__ = [
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "ExperimentQueue",
    "Job",
    "SqliteBackend",
    "WorkerStats",
    "execute_job",
    "install_sigterm_drain",
    "new_worker_id",
    "run_worker",
    "STATUSES",
]

STATUSES = ("open", "leased", "done", "error")
DEFAULT_LEASE_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3
# How often a waiting sqlite claim re-reads PRAGMA data_version, the
# connection's counter of changes other connections committed.
DATA_VERSION_POLL_S = 0.002

# The dataset fields a queue job serialises; subjects are re-derived from
# the seed on the worker, so explicit-subject datasets are rejected at
# submit time (they have no canonical JSON form).
_DATASET_FIELDS = ("n_patterns", "n_subjects", "fs", "duration_s", "seed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    spec_key     TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    spec_json    TEXT NOT NULL,
    payload      TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'open',
    attempt      INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    worker_id    TEXT,
    heartbeat    REAL,
    lease_s      REAL NOT NULL DEFAULT 0,
    not_before   REAL NOT NULL DEFAULT 0,
    error        TEXT,
    traceback    TEXT,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    PRIMARY KEY (spec_key, fingerprint)
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, not_before);
"""


class SqliteBackend(QueueBackend):
    """The sqlite-WAL jobs table (one connection per instance).

    Parameters
    ----------
    path:
        Database file, shared by every worker (``":memory:"`` works for
        single-connection tests; workers need a real file).
    backoff_base_s / backoff_cap_s / backoff_jitter:
        Retry delay after a failed attempt ``a`` is
        ``min(cap, base * 2**(a-1)) * (1 + jitter * u)`` with ``u``
        deterministic in ``(spec_key, fingerprint, a)``.

    Instances are thread-safe (one internal lock around the shared
    connection); cross-process safety comes from sqlite itself
    (WAL + busy timeout + single-statement or IMMEDIATE transactions).
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        backoff_jitter: float = 0.25,
    ) -> None:
        if backoff_base_s < 0 or backoff_cap_s < 0 or backoff_jitter < 0:
            raise ValueError("backoff parameters must be non-negative")
        self.path = str(path)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.backoff_jitter = float(backoff_jitter)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path,
            timeout=30.0,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        """Close the underlying connection (the file is the state)."""
        with self._lock:
            self._conn.close()

    def spawn(self) -> "SqliteBackend":
        """A fresh connection to the same database file."""
        return SqliteBackend(
            self.path,
            backoff_base_s=self.backoff_base_s,
            backoff_cap_s=self.backoff_cap_s,
            backoff_jitter=self.backoff_jitter,
        )

    def __repr__(self) -> str:
        return f"SqliteBackend({self.path!r})"

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec_key: str,
        fingerprint: str,
        spec: dict,
        payload: dict,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: "float | None" = None,
    ) -> bool:
        """Insert one job row; returns False when the key already exists.

        Re-submitting is idempotent: an existing row (whatever its
        status) is left untouched, so a second ``queue submit`` of the
        same sweep never duplicates or resets work.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        now = self._now(now)
        with self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO jobs (spec_key, fingerprint, spec_json,"
                " payload, status, max_attempts, created_at, updated_at)"
                " VALUES (?, ?, ?, ?, 'open', ?, ?, ?)",
                (
                    spec_key,
                    fingerprint,
                    json.dumps(spec, sort_keys=True),
                    json.dumps(payload, sort_keys=True),
                    int(max_attempts),
                    now,
                    now,
                ),
            )
            return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # The lease lifecycle
    # ------------------------------------------------------------------
    def reap(self, now: "float | None" = None) -> int:
        """Reclaim every expired lease; returns how many rows changed.

        A leased row whose last heartbeat is more than its lease duration
        in the past belongs to a dead (or wedged) worker.  The loss is
        logged in the row; the row re-opens for any peer unless its
        attempts are already exhausted, in which case it is quarantined
        like any other failure.  Called implicitly by every ``claim``.
        """
        now = self._now(now)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                n = self._reap_locked(now)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return n

    def _reap_locked(self, now: float) -> int:
        rows = self._conn.execute(
            "SELECT spec_key, fingerprint, worker_id, attempt, max_attempts"
            " FROM jobs WHERE status='leased' AND heartbeat + lease_s <= ?",
            (now,),
        ).fetchall()
        for row in rows:
            message = (
                f"lease expired: worker {row['worker_id']!r} stopped "
                f"heartbeating (attempt {row['attempt']}/{row['max_attempts']})"
            )
            if row["attempt"] >= row["max_attempts"]:
                self._conn.execute(
                    "UPDATE jobs SET status='error', worker_id=NULL,"
                    " error=?, updated_at=? WHERE spec_key=? AND fingerprint=?",
                    (
                        message + "; attempts exhausted -> quarantined",
                        now,
                        row["spec_key"],
                        row["fingerprint"],
                    ),
                )
            else:
                not_before = now + self._backoff_s(
                    row["spec_key"], row["fingerprint"], row["attempt"]
                )
                self._conn.execute(
                    "UPDATE jobs SET status='open', worker_id=NULL,"
                    " not_before=?, error=?, updated_at=?"
                    " WHERE spec_key=? AND fingerprint=?",
                    (
                        not_before,
                        message,
                        now,
                        row["spec_key"],
                        row["fingerprint"],
                    ),
                )
        return len(rows)

    def claim(
        self,
        worker_id: str,
        lease_s: float = DEFAULT_LEASE_S,
        now: "float | None" = None,
        wait_s: float = 0.0,
    ) -> "Job | None":
        """Atomically lease the oldest claimable open job, if any.

        Expired peer leases are reclaimed first, so a pool of workers
        needs no separate janitor.  Claiming counts as starting an
        attempt (``attempt`` increments).  Returns ``None`` when nothing
        is claimable right now (the queue may still hold backed-off or
        leased rows — see :meth:`unfinished`).

        With ``wait_s > 0`` an empty claim waits: every
        :data:`DATA_VERSION_POLL_S` it re-reads ``PRAGMA data_version``
        (read-only, no write lock), and when another connection has
        committed a change it claims again.  It returns the first job it
        leases, ``None`` as soon as the queue is drained, or ``None``
        once ``wait_s`` has passed.  Jobs opened by time alone (a
        retry's ``not_before``, an expiring lease) are found by the
        caller's next claim.
        """
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        wait_s = check_wait_s(wait_s)
        deadline = time.monotonic() + wait_s
        while True:
            version = self._data_version()  # before the attempt: no lost wakeup
            job = self._claim_once(worker_id, float(lease_s), now)
            if job is not None or wait_s == 0.0 or drained(self.counts()):
                return job
            while self._data_version() == version:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return None
                time.sleep(min(DATA_VERSION_POLL_S, remaining))

    def _data_version(self) -> int:
        with self._lock:
            return self._conn.execute("PRAGMA data_version").fetchone()[0]

    def _claim_once(
        self, worker_id: str, lease_s: float, now: "float | None"
    ) -> "Job | None":
        now = self._now(now)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._reap_locked(now)
                row = self._conn.execute(
                    "SELECT * FROM jobs WHERE status='open' AND not_before<=?"
                    " ORDER BY created_at, spec_key, fingerprint LIMIT 1",
                    (now,),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                attempt = row["attempt"] + 1
                self._conn.execute(
                    "UPDATE jobs SET status='leased', worker_id=?, attempt=?,"
                    " heartbeat=?, lease_s=?, updated_at=?"
                    " WHERE spec_key=? AND fingerprint=?",
                    (
                        worker_id,
                        attempt,
                        now,
                        lease_s,
                        now,
                        row["spec_key"],
                        row["fingerprint"],
                    ),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return Job(
            spec_key=row["spec_key"],
            fingerprint=row["fingerprint"],
            spec=json.loads(row["spec_json"]),
            payload=json.loads(row["payload"]),
            attempt=attempt,
            max_attempts=row["max_attempts"],
            lease_s=lease_s,
            worker_id=worker_id,
        )

    def heartbeat(self, job: Job, now: "float | None" = None) -> bool:
        """Refresh the lease; False means it was lost (stop working)."""
        now = self._now(now)
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET heartbeat=?, updated_at=?"
                " WHERE spec_key=? AND fingerprint=? AND status='leased'"
                " AND worker_id=?",
                (now, now, job.spec_key, job.fingerprint, job.worker_id),
            )
            return cursor.rowcount == 1

    def complete(self, job: Job, now: "float | None" = None) -> bool:
        """Mark a leased job done (fenced); False means the lease was lost.

        A stalled worker whose shard was reclaimed and re-run by a peer
        gets ``False`` here and must discard the outcome — its store
        writes were idempotent, its row transition is rejected.  A prior
        attempt's logged failure is kept for the audit trail.
        """
        now = self._now(now)
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET status='done', worker_id=NULL, updated_at=?"
                " WHERE spec_key=? AND fingerprint=? AND status='leased'"
                " AND worker_id=?",
                (now, job.spec_key, job.fingerprint, job.worker_id),
            )
            return cursor.rowcount == 1

    def fail(
        self,
        job: Job,
        error: str,
        tb: "str | None" = None,
        retryable: bool = True,
        now: "float | None" = None,
    ) -> "str | None":
        """Record a failed attempt (fenced).

        Returns the row's new status: ``"open"`` (requeued with backoff),
        ``"error"`` (quarantined — attempts exhausted or the failure was
        declared non-retryable), or ``None`` when the lease was already
        lost and the report was fenced off.  The full worker traceback is
        logged in the row either way.
        """
        now = self._now(now)
        quarantine = (not retryable) or job.attempt >= job.max_attempts
        with self._lock:
            if quarantine:
                cursor = self._conn.execute(
                    "UPDATE jobs SET status='error', worker_id=NULL,"
                    " error=?, traceback=?, updated_at=?"
                    " WHERE spec_key=? AND fingerprint=? AND status='leased'"
                    " AND worker_id=?",
                    (
                        error,
                        tb,
                        now,
                        job.spec_key,
                        job.fingerprint,
                        job.worker_id,
                    ),
                )
            else:
                not_before = now + self._backoff_s(
                    job.spec_key, job.fingerprint, job.attempt
                )
                cursor = self._conn.execute(
                    "UPDATE jobs SET status='open', worker_id=NULL,"
                    " not_before=?, error=?, traceback=?, updated_at=?"
                    " WHERE spec_key=? AND fingerprint=? AND status='leased'"
                    " AND worker_id=?",
                    (
                        not_before,
                        error,
                        tb,
                        now,
                        job.spec_key,
                        job.fingerprint,
                        job.worker_id,
                    ),
                )
            if cursor.rowcount != 1:
                return None
        return "error" if quarantine else "open"

    def release(self, job: Job, now: "float | None" = None) -> bool:
        """Hand back an unstarted lease (fenced); the attempt is uncounted.

        The SIGTERM drain path: a worker that prefetched shards it will
        never start returns them immediately instead of letting the
        leases time out.
        """
        now = self._now(now)
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET status='open', worker_id=NULL,"
                " attempt=attempt-1, not_before=?, updated_at=?"
                " WHERE spec_key=? AND fingerprint=? AND status='leased'"
                " AND worker_id=?",
                (now, now, job.spec_key, job.fingerprint, job.worker_id),
            )
            return cursor.rowcount == 1

    def reset(self, now: "float | None" = None) -> int:
        """Re-open every quarantined row; returns how many were re-opened.

        Attempts restart from zero (the bug is presumed fixed); the last
        logged failure stays in the row until the next transition
        overwrites it.
        """
        now = self._now(now)
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET status='open', attempt=0, not_before=0,"
                " worker_id=NULL, updated_at=? WHERE status='error'",
                (now,),
            )
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> "dict[str, int]":
        """Row count per status (every status present, zero-filled)."""
        out = {status: 0 for status in STATUSES}
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        for row in rows:
            out[row["status"]] = row["n"]
        return out

    def rows(self, status: "str | None" = None) -> "list[dict]":
        """A snapshot of job rows (optionally one status), as dicts."""
        if status is not None and status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {status!r}"
            )
        query = "SELECT * FROM jobs"
        params: tuple = ()
        if status is not None:
            query += " WHERE status=?"
            params = (status,)
        query += " ORDER BY created_at, spec_key, fingerprint"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]


class ExperimentQueue:
    """The jobs-table frontend over a pluggable backend.

    ``ExperimentQueue(path)`` opens the classic sqlite-WAL table
    (:class:`SqliteBackend`); ``ExperimentQueue(backend)`` wraps any
    ready-made :class:`~repro.runtime.transport.QueueBackend` — e.g. a
    :class:`~repro.runtime.transport.RemoteBackend` talking to a
    ``repro dispatch`` server — behind the identical API, so sweep
    drivers and tests are backend-agnostic.  Everything
    backend-independent lives here: dataset sharding
    (:meth:`submit_dataset`), drain accounting and the quarantine
    re-raise; the lease verbs delegate.

    Parameters
    ----------
    source:
        A database path (sqlite) or a :class:`QueueBackend` instance
        (adopted as-is; the backoff parameters then come from it).
    backoff_base_s / backoff_cap_s / backoff_jitter:
        Retry delay after a failed attempt ``a`` is
        ``min(cap, base * 2**(a-1)) * (1 + jitter * u)`` with ``u``
        deterministic in ``(spec_key, fingerprint, a)``.
    """

    def __init__(
        self,
        source: "str | os.PathLike | QueueBackend",
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        backoff_jitter: float = 0.25,
    ) -> None:
        if isinstance(source, QueueBackend):
            self.backend = source
        else:
            self.backend = SqliteBackend(
                source,
                backoff_base_s=backoff_base_s,
                backoff_cap_s=backoff_cap_s,
                backoff_jitter=backoff_jitter,
            )

    # -- frontend plumbing ---------------------------------------------
    @property
    def path(self) -> str:
        """The backend's location (file path or ``dispatch://`` URL)."""
        return self.backend.path

    @property
    def backoff_base_s(self) -> float:
        return self.backend.backoff_base_s

    @property
    def backoff_cap_s(self) -> float:
        return self.backend.backoff_cap_s

    @property
    def backoff_jitter(self) -> float:
        return self.backend.backoff_jitter

    def _backoff_s(self, spec_key: str, fingerprint: str, attempt: int) -> float:
        return self.backend._backoff_s(spec_key, fingerprint, attempt)

    def close(self) -> None:
        """Close the backend connection (the queue state persists)."""
        self.backend.close()

    def __enter__(self) -> "ExperimentQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        counts = self.counts()
        body = ", ".join(f"{s}={counts[s]}" for s in STATUSES)
        return f"ExperimentQueue({self.path!r}, {body})"

    @staticmethod
    def _now(now: "float | None") -> float:
        return time.time() if now is None else float(now)

    # -- delegated lease lifecycle -------------------------------------
    def submit(
        self,
        spec_key: str,
        fingerprint: str,
        spec: dict,
        payload: dict,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: "float | None" = None,
    ) -> bool:
        """Insert one job row; returns False when the key already exists."""
        return self.backend.submit(
            spec_key, fingerprint, spec, payload,
            max_attempts=max_attempts, now=now,
        )

    def claim(
        self,
        worker_id: str,
        lease_s: float = DEFAULT_LEASE_S,
        now: "float | None" = None,
        wait_s: float = 0.0,
    ) -> "Job | None":
        """Atomically lease the oldest claimable open job, if any.

        With ``wait_s > 0`` an empty claim waits up to ``wait_s`` seconds
        for a job to open (returned) or the queue to drain (``None``).
        """
        return self.backend.claim(
            worker_id, lease_s=lease_s, now=now, wait_s=wait_s
        )

    def heartbeat(self, job: Job, now: "float | None" = None) -> bool:
        """Refresh the lease; False means it was lost (stop working)."""
        return self.backend.heartbeat(job, now=now)

    def complete(self, job: Job, now: "float | None" = None) -> bool:
        """Mark a leased job done (fenced); False means the lease was lost."""
        return self.backend.complete(job, now=now)

    def fail(
        self,
        job: Job,
        error: str,
        tb: "str | None" = None,
        retryable: bool = True,
        now: "float | None" = None,
    ) -> "str | None":
        """Record a failed attempt (fenced); the row's new status or None."""
        return self.backend.fail(
            job, error, tb=tb, retryable=retryable, now=now
        )

    def release(self, job: Job, now: "float | None" = None) -> bool:
        """Hand back an unstarted lease (fenced); the attempt is uncounted."""
        return self.backend.release(job, now=now)

    def reap(self, now: "float | None" = None) -> int:
        """Reclaim every expired lease; returns how many rows changed."""
        return self.backend.reap(now=now)

    def reset(self, now: "float | None" = None) -> int:
        """Re-open every quarantined row; returns how many were re-opened."""
        return self.backend.reset(now=now)

    def counts(self) -> "dict[str, int]":
        """Row count per status (every status present, zero-filled)."""
        return self.backend.counts()

    def rows(self, status: "str | None" = None) -> "list[dict]":
        """A snapshot of job rows (optionally one status), as dicts."""
        return self.backend.rows(status)

    def total(self) -> int:
        """Total number of job rows."""
        return self.backend.total()

    def unfinished(self) -> int:
        """Rows still in flight (open or leased)."""
        return self.backend.unfinished()

    def errors(self) -> "list[dict]":
        """The quarantined rows (status ``'error'``), with tracebacks."""
        return self.backend.errors()

    def raise_first_error(self) -> None:
        """Re-raise the first quarantined failure, traceback chained.

        The logged worker traceback arrives as a
        :class:`~repro.runtime.executors.RemoteTraceback` ``__cause__``,
        the same convention ``map_jobs``'s process backend uses, so the
        original failure site shows up in the caller's output.
        """
        self.backend.raise_first_error()

    # -- dataset sharding ----------------------------------------------
    def submit_dataset(
        self,
        spec,
        dataset,
        limit: "int | None" = None,
        shard_size: "int | None" = None,
        workers_hint: int = 4,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: "float | None" = None,
    ) -> int:
        """Shard a dataset sweep into jobs; returns how many were inserted.

        Shards come from :func:`~repro.runtime.executors.plan_shards`
        (``~4 * workers_hint`` shards by default, ``shard_size``
        overrides), each job carrying the spec dict, the dataset's
        generating fields and its pattern ids.  Workers write per-pattern
        summaries to the shared store under exactly the addresses
        :meth:`repro.api.Experiment.dataset_sweep` uses, so collecting
        the finished sweep is one *warm* ``dataset_sweep`` call — zero
        re-evaluations, bit-identical to the serial path.
        """
        from ..api import ExperimentSpec, dataset_fingerprint
        from ..signals.dataset import DatasetSpec

        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"spec must be an ExperimentSpec, got {type(spec).__name__}"
            )
        fields = {name: getattr(dataset, name) for name in _DATASET_FIELDS}
        if DatasetSpec(**fields) != dataset:
            raise ValueError(
                "queue jobs serialise a dataset by its generating fields "
                f"{_DATASET_FIELDS}; this dataset carries explicit subjects "
                "that would not survive the round-trip"
            )
        n = dataset.n_patterns if limit is None else min(limit, dataset.n_patterns)
        if n < 1:
            raise ValueError(f"nothing to submit: limit={limit}")
        spec_dict = spec.to_dict()
        spec_key = spec.key()
        base = dataset_fingerprint(dataset)
        from .store import fingerprint_value

        submitted = 0
        for shard in plan_shards(n, max(workers_hint, 1), shard_size):
            ids = list(range(shard.start, shard.stop))
            fingerprint = fingerprint_value({"dataset": base, "ids": ids})
            payload = {"kind": "dataset_shard", "dataset": fields, "ids": ids}
            submitted += self.submit(
                spec_key,
                fingerprint,
                spec_dict,
                payload,
                max_attempts=max_attempts,
                now=now,
            )
        return submitted


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def _canonical(fields: dict) -> str:
    """A job field's canonical JSON (the :func:`_sweep_context` key)."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=8)
def _sweep_context(spec_json: str, dataset_json: str) -> tuple:
    """``(spec, dataset, spec key, dataset fingerprint)`` for one sweep.

    Every job of a sweep carries the same spec and dataset fields, so a
    worker derives these once per sweep instead of once per job.
    """
    from ..api import ExperimentSpec, dataset_fingerprint
    from ..signals.dataset import DatasetSpec

    spec = ExperimentSpec.from_dict(json.loads(spec_json))
    dataset = DatasetSpec(**json.loads(dataset_json))
    return spec, dataset, spec.key(), dataset_fingerprint(dataset)


def execute_job(job: Job, store) -> int:
    """Run one claimed job against the shared store; returns evaluations.

    A ``dataset_shard`` job regenerates its patterns, evaluates the ones
    missing from the store through the fully batched
    :meth:`repro.api.Experiment.run` pipeline, and persists per-pattern
    summaries under the same ``(spec.key(), dataset-point fingerprint)``
    addresses a cached :meth:`~repro.api.Experiment.dataset_sweep` reads.
    Skipping already-stored patterns makes re-runs of a reclaimed,
    half-finished shard cheap and keeps every path idempotent.  ``store``
    is any object with the store ``get_many``/``put`` surface — the on-disk
    :class:`~repro.runtime.store.ResultStore` or a
    :class:`~repro.runtime.transport.RemoteStore` shipping blobs to the
    dispatcher.
    """
    from ..api import Experiment, dataset_point_fingerprint

    kind = job.payload.get("kind")
    if kind != "dataset_shard":
        raise ValueError(f"unknown job kind {kind!r}")
    spec, dataset, key, base = _sweep_context(
        _canonical(job.spec), _canonical(job.payload["dataset"])
    )
    ids = [int(i) for i in job.payload["ids"]]
    fingerprints = [dataset_point_fingerprint(base, i) for i in ids]
    cached = store.get_many(key, fingerprints)
    todo = [k for k, arrays in enumerate(cached) if arrays is None]
    if todo:
        patterns = [dataset.pattern(ids[k]) for k in todo]
        results = Experiment(spec).run(patterns)
        for k, result in zip(todo, results):
            store.put(
                key,
                fingerprints[k],
                {
                    "correlation_pct": np.float64(result.correlation_pct),
                    "n_events": np.int64(result.n_events),
                },
            )
    return len(todo)


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def new_worker_id() -> str:
    """A globally unique worker identity (host, pid, random suffix)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass
class WorkerStats:
    """What one :func:`run_worker` call did, by outcome."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    requeued: int = 0  # failed attempts sent back for retry
    quarantined: int = 0  # failures that exhausted max_attempts
    lost: int = 0  # outcomes fenced off (lease expired under us)
    released: int = 0  # unstarted leases returned on drain
    evaluated: int = 0  # patterns actually computed (store misses)


class _Heartbeat:
    """One daemon thread refreshing the lease of the job in hand.

    ``backend`` is the worker's heartbeat connection, separate from the
    one it claims and completes on.  Jobs run one at a time, so one
    thread serves every job in turn: :meth:`start` points it at a job,
    :meth:`stop` detaches it, :meth:`close` ends the thread.
    """

    def __init__(self, backend: QueueBackend, interval_s: float) -> None:
        self.lost = False  # the current job's lease was found reclaimed
        self._backend = backend
        self._interval_s = interval_s
        self._cond = threading.Condition()
        self._job: "Job | None" = None
        self._turn = 0  # bumped by every start/stop: a stale beat is dropped
        self._beating = False  # a heartbeat call is in flight
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def start(self, job: Job) -> None:
        """Beat for ``job`` every ``interval_s`` until :meth:`stop`."""
        with self._cond:
            self._job = job
            self._turn += 1
            self.lost = False
            self._cond.notify_all()

    def stop(self) -> None:
        """Stop beating; on return no beat for the job is in flight or due."""
        with self._cond:
            self._job = None
            self._turn += 1
            self._cond.notify_all()
            while self._beating:
                self._cond.wait()

    def close(self) -> None:
        """Stop beating, end the thread and close its connection."""
        with self._cond:
            self._closed = True
        self.stop()
        self._thread.join()
        self._backend.close()

    def _run(self) -> None:
        with self._cond:
            while not self._closed:
                job, turn = self._job, self._turn
                self._cond.wait_for(
                    lambda: self._turn != turn or self._closed,
                    None if job is None else self._interval_s,
                )
                if job is None or self._turn != turn or self._closed:
                    continue
                self._beating = True
                self._cond.release()
                try:
                    applied = self._backend.heartbeat(job)
                except Exception:
                    # Unreachable past the retry window: treat the lease
                    # as lost; its expiry fences this job's outcome.
                    applied = False
                finally:
                    self._cond.acquire()
                    self._beating = False
                    self._cond.notify_all()
                if not applied and self._turn == turn:
                    self.lost = True
                    self._job = None


def run_worker(
    queue_path: "str | os.PathLike | None" = None,
    store_root: "str | os.PathLike | None" = None,
    worker_id: "str | None" = None,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = 0.2,
    max_idle_s: "float | None" = 0.0,
    max_jobs: "int | None" = None,
    prefetch: int = 1,
    heartbeat_s: "float | None" = None,
    faults: "FaultPlan | None" = None,
    should_stop=None,
    log=None,
    *,
    dispatcher: "str | None" = None,
    idle_cap_s: float = 2.0,
    sleep=None,
    clock=None,
) -> WorkerStats:
    """Pull and execute shards until the queue drains (or we are stopped).

    The loop: claim up to ``prefetch`` jobs, heartbeat each while it
    executes, ``complete``/``fail`` it (fenced), repeat.  The worker
    exits when the queue holds jobs and none are unfinished ("drained"),
    when the queue has held *no jobs at all* for ``max_idle_s`` seconds
    (a startup grace for workers launched before the sweep is submitted;
    ``0`` = exit immediately if empty, ``None`` = wait forever), when
    ``max_jobs`` attempts have been claimed, or when
    ``should_stop()`` turns true (the SIGTERM drain: the in-flight shard
    finishes, prefetched leases are released, exit is clean).

    With ``dispatcher="host:port"`` the worker needs no shared mount:
    the queue is a :class:`~repro.runtime.transport.RemoteBackend` and
    results ship to the dispatcher's store through a
    :class:`~repro.runtime.transport.RemoteStore`; ``queue_path`` /
    ``store_root`` must then be None.

    Idle steps back off: after the ``idle``-th consecutive empty claim
    the next claim may wait ``min(idle_cap_s, poll_s * 2**idle)`` with
    deterministic jitter (reset by the next successful claim) as its
    ``wait_s``.  The claim returns as soon as a job is submitted or the
    queue drains, so an idle worker wakes on submission, yet a large
    idle fleet still probes the queue at a trickle.  ``clock`` (default
    ``time.monotonic``) times the ``max_idle_s`` grace; ``sleep``
    (default ``time.sleep``) is the worker's one remaining real sleep,
    the ``stall`` fault's wedge.  Both are injectable for tests.

    ``faults`` applies the deterministic injectors from
    :mod:`repro.runtime.faults` — see that module for the taxonomy.
    """
    if prefetch < 1:
        raise ValueError(f"prefetch must be >= 1, got {prefetch}")
    if dispatcher is not None:
        if queue_path is not None or store_root is not None:
            raise ValueError(
                "pass either dispatcher=... or queue_path/store_root, not both"
            )
        queue = ExperimentQueue(RemoteBackend(dispatcher, faults=faults))
        store = RemoteStore(dispatcher, faults=faults)
    else:
        if queue_path is None or store_root is None:
            raise ValueError(
                "run_worker needs queue_path and store_root (or dispatcher=)"
            )
        queue = ExperimentQueue(queue_path)
        store = ResultStore(store_root)
    sleep = time.sleep if sleep is None else sleep
    clock = time.monotonic if clock is None else clock
    worker_id = worker_id or new_worker_id()
    stats = WorkerStats(worker_id=worker_id)
    heartbeat_s = (
        max(lease_s / 4.0, 0.02) if heartbeat_s is None else heartbeat_s
    )
    say = log or (lambda message: None)
    backlog: "list[Job]" = []
    idle_since: "float | None" = None
    idle_polls = 0  # consecutive empty claims since the last success
    wait_s = 0.0  # how long the next claim may wait for work
    heartbeat: "_Heartbeat | None" = None
    try:
        heartbeat = _Heartbeat(queue.backend.spawn(), heartbeat_s)
        while True:
            if should_stop is not None and should_stop():
                for job in backlog:
                    if queue.release(job):
                        stats.released += 1
                say(f"{worker_id}: stop requested, drained cleanly")
                break
            budget = prefetch - len(backlog)
            if max_jobs is not None:
                budget = min(budget, max_jobs - stats.claimed)
            for _ in range(budget):
                job = queue.claim(worker_id, lease_s=lease_s, wait_s=wait_s)
                wait_s = 0.0  # prefetch beyond the first claim never waits
                if job is None:
                    break
                idle_polls = 0
                stats.claimed += 1
                backlog.append(job)
            if not backlog:
                if max_jobs is not None and stats.claimed >= max_jobs:
                    break
                counts = queue.counts()
                if drained(counts):
                    break  # every row is done or quarantined
                if idle_since is None:
                    idle_since = clock()
                if (
                    sum(counts.values()) == 0
                    and max_idle_s is not None
                    and clock() - idle_since >= max_idle_s
                ):
                    break  # nothing was ever submitted within the grace
                # Exponent clamped: past ~2**30 the doubling is
                # academic and 2.0**idle_polls overflows a float.
                wait_s = min(idle_cap_s, poll_s * 2.0 ** min(idle_polls, 30))
                wait_s *= 1.0 + 0.25 * _backoff_jitter(
                    worker_id, "idle", idle_polls
                )
                idle_polls += 1
                continue
            idle_since = None
            job = backlog.pop(0)
            fault = (
                faults.match(job.fingerprint, job.attempt)
                if faults is not None
                else None
            )
            heartbeat.start(job)
            try:
                if fault is not None and fault.kind == "crash":
                    # SIGKILL equivalent: no cleanup, no finally blocks.
                    os._exit(137)
                if fault is not None and fault.kind == "stall":
                    heartbeat.stop()
                    sleep(fault.stall_s)
                if fault is not None and fault.kind == "error":
                    raise InjectedFault(
                        f"injected transient error on "
                        f"{job.fingerprint[:12]} attempt {job.attempt}"
                    )
                stats.evaluated += execute_job(job, store)
            except BaseException as exc:
                heartbeat.stop()
                outcome = queue.fail(
                    job,
                    error=f"{type(exc).__name__}: {exc}",
                    tb=traceback.format_exc(),
                )
                if outcome == "open":
                    stats.requeued += 1
                elif outcome == "error":
                    stats.quarantined += 1
                else:
                    stats.lost += 1
                say(
                    f"{worker_id}: {job.fingerprint[:12]} attempt "
                    f"{job.attempt} failed -> {outcome or 'lease lost'}"
                )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
            else:
                heartbeat.stop()
                if queue.complete(job):
                    stats.completed += 1
                    say(f"{worker_id}: {job.fingerprint[:12]} done")
                else:
                    stats.lost += 1
                    say(
                        f"{worker_id}: {job.fingerprint[:12]} completion "
                        "fenced off (lease was reclaimed)"
                    )
            finally:
                heartbeat.stop()
    finally:
        if heartbeat is not None:
            heartbeat.close()
        queue.close()
        if dispatcher is not None:
            store.close()
    return stats


def install_sigterm_drain() -> "threading.Event":
    """SIGTERM -> a drain event (for ``should_stop``); returns the event.

    Only usable from the main thread (signal semantics); the CLI worker
    installs it so ``kill <pid>`` finishes the current shard instead of
    dropping it, and SIGINT keeps its default KeyboardInterrupt.
    """
    event = threading.Event()

    def _handler(signum, frame):  # noqa: ARG001 — signal signature
        event.set()

    signal.signal(signal.SIGTERM, _handler)
    return event
