"""Pluggable queue backends + the remote dispatch transport.

The PR 8 jobs table bolted lease/fencing/retry semantics straight onto
sqlite; this module lifts the *contract* out of the storage engine so
workers can run with no shared filesystem at all:

* :class:`QueueBackend` — the abstract lease lifecycle every backend
  must implement (``submit`` / ``claim`` / ``heartbeat`` / ``complete``
  / ``fail`` / ``release`` / ``reset`` / ``reap`` / ``counts`` /
  ``rows``), with the shared pieces (backoff arithmetic, drain
  accounting, ``raise_first_error``) implemented once on the base.
  Every timed verb takes the same injectable logical ``now``, and every
  downstream transition stays fenced on ``status + worker_id`` — the
  contract the queue test suites assert, verbatim, against any
  implementation.
* :class:`RemoteBackend` — the same interface spoken over a TCP socket
  to a ``repro dispatch`` server (:mod:`repro.runtime.dispatcher`),
  using the newline-delimited JSON framing of the streaming server.
  Requests carry per-call timeouts; connect and transient socket errors
  retry with capped exponential backoff plus deterministic jitter, so a
  worker survives a dispatcher that is SIGKILLed and restarted
  mid-sweep.  Fencing tokens (the job's ``worker_id``) travel in every
  transition frame and are enforced by the dispatcher's own
  ``SqliteBackend``, so a presumed-dead worker's late ``complete`` is
  rejected server-side, never silently applied.
* :class:`RemoteStore` — a :class:`~repro.runtime.store.ResultStore`
  stand-in that ships result blobs over the same socket,
  content-addressed by the identical ``(spec_key, fingerprint)`` pairs.
  Payloads carry a :func:`~repro.runtime.store.checksum_arrays` hash
  that is recomputed and verified on *both* ends of every transfer: a
  blob corrupted in flight is rejected at ``put`` and treated as a miss
  at ``get``, mirroring the on-disk store's self-healing semantics.

Wire-level fault injection reuses the chaos rig: a ``"disconnect"``
injector in a :class:`~repro.runtime.faults.FaultPlan` (or
``REPRO_FAULTS``) makes the channel drop its socket before a matched
request — fingerprint ``"<name>:<op>"``, attempt = that op's 1-based
call count — deterministically replaying a network partition through
the reconnect path.  Other injector kinds are ignored here (they belong
to the worker loop).

See ``docs/DISPATCH.md`` for the wire verbs and the failure matrix.
"""

from __future__ import annotations

import abc
import base64
import binascii
import dataclasses
import hashlib
import json
import socket
import threading
import time
from collections.abc import Sequence

import numpy as np

from .faults import FaultPlan
from .store import CHECKSUM_KEY, checksum_arrays

__all__ = [
    "DISPATCH_PROTOCOL_VERSION",
    "DispatchError",
    "Job",
    "MAX_FRAME_BYTES",
    "QueueBackend",
    "RemoteBackend",
    "RemoteStore",
    "TransportError",
    "decode_payload",
    "encode_payload",
]

# 2: ``claim`` takes ``wait_s`` and the dispatcher parks an empty claim.
# A version-1 dispatcher would ignore ``wait_s`` and answer at once, so
# a new worker's idle loop would spin against it; ``hello`` refuses.
# 3: ``store_get`` takes ``fingerprints`` and answers ``payloads`` (a
# prefix when the rest would overflow the frame).  A version-2
# dispatcher would read the batch as a single missing key.
DISPATCH_PROTOCOL_VERSION = 3

# Same generous frame cap as the streaming server: a result blob for one
# shard is a few hundred bytes of base64; anything near the cap is a
# protocol violation, not a big result.
MAX_FRAME_BYTES = 16 * 1024 * 1024

# Most fingerprints one batch ``store_get`` request carries (~300 KB of
# request frame); longer reads take several requests.
_GET_BATCH = 4096

STATUSES = ("open", "leased", "done", "error")
DEFAULT_LEASE_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3


class TransportError(ConnectionError):
    """The dispatcher stayed unreachable past the retry window."""


class DispatchError(RuntimeError):
    """The dispatcher answered ``{"ok": false}`` with a non-builtin error."""


@dataclasses.dataclass(frozen=True)
class Job:
    """One claimed shard: everything a worker needs to execute it."""

    spec_key: str
    fingerprint: str
    spec: dict
    payload: dict
    attempt: int
    max_attempts: int
    lease_s: float
    worker_id: str

    def to_dict(self) -> dict:
        """JSON-able form (the dispatch wire format)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            spec_key=str(data["spec_key"]),
            fingerprint=str(data["fingerprint"]),
            spec=dict(data["spec"]),
            payload=dict(data["payload"]),
            attempt=int(data["attempt"]),
            max_attempts=int(data["max_attempts"]),
            lease_s=float(data["lease_s"]),
            worker_id=str(data["worker_id"]),
        )


def drained(counts: "dict[str, int]") -> bool:
    """The queue holds jobs and none is open or leased (all finished)."""
    return sum(counts.values()) > 0 and counts["open"] + counts["leased"] == 0


def check_wait_s(wait_s) -> float:
    """Validate a claim's ``wait_s`` (seconds, ``>= 0``) as a float."""
    wait_s = float(wait_s)
    if not wait_s >= 0.0:  # also rejects NaN
        raise ValueError(f"wait_s must be non-negative, got {wait_s}")
    return wait_s


def _backoff_jitter(spec_key: str, fingerprint: str, attempt: int) -> float:
    """Deterministic uniform in [0, 1) — same delay on every machine."""
    digest = hashlib.sha256(
        f"backoff:{spec_key}:{fingerprint}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class QueueBackend(abc.ABC):
    """The lease-lifecycle contract every queue backend implements.

    Implementations provide the storage-specific verbs; the base class
    carries what is backend-independent — the capped-exponential backoff
    schedule (``backoff_base_s`` / ``backoff_cap_s`` / ``backoff_jitter``
    attributes every implementation must set), drain accounting, and the
    quarantine re-raise.  The semantic contract, asserted by the queue
    test suites against any implementation:

    * every timed verb takes ``now`` (``None`` = wall clock) so tests
      drive the lease clock logically;
    * ``submit`` is idempotent on ``(spec_key, fingerprint)``;
    * ``claim`` reaps expired peers first and increments ``attempt``;
      with ``wait_s > 0`` an empty claim waits for a job to open, for
      the queue to drain (returns ``None`` early) or for ``wait_s`` to
      pass, re-trying after each change another client commits; the
      waiting claim holds no lease;
    * ``heartbeat`` / ``complete`` / ``fail`` / ``release`` are *fenced*:
      they apply only while the row is still ``leased`` to the caller's
      ``worker_id``, so a reclaimed worker's late writes are rejected.
    """

    backoff_base_s: float
    backoff_cap_s: float
    backoff_jitter: float
    path: str

    @staticmethod
    def _now(now: "float | None") -> float:
        return time.time() if now is None else float(now)

    def _backoff_s(self, spec_key: str, fingerprint: str, attempt: int) -> float:
        delay = min(
            self.backoff_cap_s, self.backoff_base_s * 2.0 ** max(attempt - 1, 0)
        )
        jitter = _backoff_jitter(spec_key, fingerprint, attempt)
        return delay * (1.0 + self.backoff_jitter * jitter)

    # -- storage-specific verbs ----------------------------------------
    @abc.abstractmethod
    def submit(
        self,
        spec_key: str,
        fingerprint: str,
        spec: dict,
        payload: dict,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: "float | None" = None,
    ) -> bool:
        """Insert one job row; False when the key already exists."""

    @abc.abstractmethod
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

    @abc.abstractmethod
    def heartbeat(self, job: Job, now: "float | None" = None) -> bool:
        """Refresh the lease; False means it was lost (stop working)."""

    @abc.abstractmethod
    def complete(self, job: Job, now: "float | None" = None) -> bool:
        """Mark a leased job done (fenced); False means the lease was lost."""

    @abc.abstractmethod
    def fail(
        self,
        job: Job,
        error: str,
        tb: "str | None" = None,
        retryable: bool = True,
        now: "float | None" = None,
    ) -> "str | None":
        """Record a failed attempt (fenced); the row's new status or None."""

    @abc.abstractmethod
    def release(self, job: Job, now: "float | None" = None) -> bool:
        """Hand back an unstarted lease (fenced); the attempt is uncounted."""

    @abc.abstractmethod
    def reap(self, now: "float | None" = None) -> int:
        """Reclaim every expired lease; returns how many rows changed."""

    @abc.abstractmethod
    def reset(self, now: "float | None" = None) -> int:
        """Re-open every quarantined row; returns how many were re-opened."""

    @abc.abstractmethod
    def counts(self) -> "dict[str, int]":
        """Row count per status (every status present, zero-filled)."""

    @abc.abstractmethod
    def rows(self, status: "str | None" = None) -> "list[dict]":
        """A snapshot of job rows (optionally one status), as dicts."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the backend's connection (the queue state persists)."""

    @abc.abstractmethod
    def spawn(self) -> "QueueBackend":
        """A fresh, independent connection to the same queue.

        Heartbeat threads use this so lease refreshes never contend with
        the worker's own claim/complete traffic on one connection.
        """

    # -- shared derived queries ----------------------------------------
    def total(self) -> int:
        """Total number of job rows."""
        return sum(self.counts().values())

    def unfinished(self) -> int:
        """Rows still in flight (open or leased)."""
        counts = self.counts()
        return counts["open"] + counts["leased"]

    def errors(self) -> "list[dict]":
        """The quarantined rows (status ``'error'``), with tracebacks."""
        return self.rows("error")

    def raise_first_error(self) -> None:
        """Re-raise the first quarantined failure, traceback chained."""
        from .executors import RemoteTraceback

        failures = self.errors()
        if not failures:
            return
        row = failures[0]
        exc = RuntimeError(
            f"job {row['fingerprint'][:12]} quarantined after "
            f"{row['attempt']} attempt(s): {row['error']}"
        )
        if row["traceback"]:
            raise exc from RemoteTraceback(row["traceback"])
        raise exc

    def __enter__(self) -> "QueueBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Result-blob wire codec
# ----------------------------------------------------------------------
def encode_payload(arrays: "dict[str, np.ndarray]") -> dict:
    """Named arrays -> a JSON-able blob carrying its own checksum.

    Each array travels as ``{dtype, shape, data}`` with the raw bytes
    base64-encoded; the blob-level ``checksum`` is
    :func:`~repro.runtime.store.checksum_arrays` over the payload, which
    the receiving end recomputes before accepting the transfer.
    """
    payload = {name: np.asarray(value) for name, value in arrays.items()}
    encoded = {}
    for name, arr in payload.items():
        # NOT ascontiguousarray: that would promote 0-dim scalars to
        # 1-dim and break shape round-tripping; tobytes() already emits
        # C-order bytes for any layout.
        encoded[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    return {"arrays": encoded, "checksum": checksum_arrays(payload)}


def decode_payload(blob: dict) -> "dict[str, np.ndarray]":
    """Inverse of :func:`encode_payload`; raises ValueError on damage.

    Damage means a malformed field, base64 garbage, a byte count that
    does not tile the declared dtype/shape, or a payload that fails its
    declared ``checksum`` — the transfer-level analogue of the store's
    corrupt-entry detection.
    """
    if not isinstance(blob, dict) or "arrays" not in blob:
        raise ValueError("payload blob must carry an 'arrays' mapping")
    arrays: "dict[str, np.ndarray]" = {}
    for name, spec in blob["arrays"].items():
        try:
            raw = binascii.a2b_base64(
                spec["data"].encode("ascii"), strict_mode=True
            )
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(n) for n in spec["shape"])
        except (KeyError, TypeError, ValueError, UnicodeEncodeError) as exc:
            raise ValueError(f"malformed array {name!r} in payload: {exc}")
        if dtype.itemsize == 0 or len(raw) % dtype.itemsize:
            raise ValueError(
                f"array {name!r}: {len(raw)} bytes does not tile dtype "
                f"{dtype.str}"
            )
        arr = np.frombuffer(raw, dtype=dtype)
        try:
            arr = arr.reshape(shape)
        except ValueError:
            raise ValueError(
                f"array {name!r}: {arr.size} items do not fill shape {shape}"
            )
        arrays[name] = arr
    declared = blob.get("checksum")
    if not isinstance(declared, str) or declared != checksum_arrays(arrays):
        raise ValueError("payload does not match its declared checksum")
    return arrays


# ----------------------------------------------------------------------
# The dispatch channel (framing + reconnect)
# ----------------------------------------------------------------------
def parse_address(address) -> "tuple[str, int]":
    """``"host:port"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    text = str(address)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"dispatcher address must be 'host:port', got {text!r}"
        )
    return host, int(port)


class DispatchChannel:
    """One blocking, auto-reconnecting request/reply socket.

    Thread-safe (one request in flight at a time); every request gets a
    per-call socket timeout, and connect or transient transport errors
    retry with capped exponential backoff + deterministic jitter until
    ``retry_window_s`` is exhausted, then raise :class:`TransportError`.
    The generous default window is what lets workers ride out a
    dispatcher SIGKILL + restart without losing their sweep.
    """

    def __init__(
        self,
        address,
        *,
        timeout_s: float = 30.0,
        retry_window_s: float = 120.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        name: str = "channel",
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.timeout_s = float(timeout_s)
        self.retry_window_s = float(retry_window_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.name = name
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.reconnects = 0  # completed re-connections after a drop
        self._lock = threading.Lock()
        self._sock: "socket.socket | None" = None
        self._fh = None
        self._ever_connected = False
        self._op_counts: "dict[str, int]" = {}
        self._closed = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _drop(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        sock.settimeout(self.timeout_s)
        self._sock = sock
        self._fh = sock.makefile("rwb")
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True

    def _consult_faults(self, op: str) -> None:
        """Drop the socket when the plan schedules a disconnect here."""
        attempt = self._op_counts.get(op, 0) + 1
        self._op_counts[op] = attempt
        if self.faults is None:
            return
        fault = self.faults.match(f"{self.name}:{op}", attempt)
        if fault is not None and fault.kind == "disconnect":
            self._drop()  # the re-dial below counts as a reconnect

    def rpc(self, op: str, **fields) -> dict:
        """One request/reply round trip; retries transport-level failures.

        Every queue verb is safe to repeat after a lost reply: ``submit``
        is idempotent, the fenced transitions at worst re-apply as a
        no-op (the retry then reads "lease lost", which the worker
        already handles), and a double-``claim``'s orphaned first lease
        expires and is reaped like any dead worker's.
        """
        if self._closed:
            raise TransportError(f"channel to {self.address} is closed")
        request = dict(fields)
        request["op"] = op
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        if len(line) > MAX_FRAME_BYTES:
            raise ValueError(
                f"request frame of {len(line)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte dispatch frame cap"
            )
        with self._lock:
            self._consult_faults(op)
            deadline = time.monotonic() + self.retry_window_s
            attempt = 0
            while True:
                try:
                    self._ensure_connected()
                    self._fh.write(line)
                    self._fh.flush()
                    reply_line = self._fh.readline(MAX_FRAME_BYTES + 1)
                    if not reply_line:
                        raise ConnectionError(
                            "dispatcher closed the connection"
                        )
                    if len(reply_line) > MAX_FRAME_BYTES:
                        raise ValueError(
                            "dispatcher reply exceeds the frame cap"
                        )
                    reply = json.loads(reply_line)
                except (OSError, ConnectionError) as exc:
                    self._drop()
                    attempt += 1
                    delay = min(
                        self.backoff_cap_s,
                        self.backoff_base_s * 2.0 ** (attempt - 1),
                    )
                    delay *= 1.0 + 0.25 * _backoff_jitter(
                        self.name, self.address, attempt
                    )
                    if time.monotonic() + delay > deadline:
                        raise TransportError(
                            f"dispatcher {self.address} unreachable after "
                            f"{attempt} attempt(s) over "
                            f"{self.retry_window_s:g}s: {exc}"
                        ) from exc
                    time.sleep(delay)
                    continue
                if reply.get("ok", False):
                    return reply
                self._raise_remote(reply)

    @staticmethod
    def _raise_remote(reply: dict) -> None:
        """Re-raise a server-side failure under its original type.

        The dispatcher ships the exception's type name; the builtin
        validation types re-raise as themselves so remote misuse reads
        exactly like local misuse (``pytest.raises(ValueError)`` passes
        against either backend); anything else surfaces as
        :class:`DispatchError`.
        """
        name = reply.get("error", "error")
        detail = reply.get("detail", "")
        builtin = {
            "ValueError": ValueError,
            "TypeError": TypeError,
            "KeyError": KeyError,
            "RuntimeError": RuntimeError,
        }.get(name)
        if builtin is not None:
            raise builtin(detail)
        raise DispatchError(f"{name}: {detail}" if detail else name)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop()


# ----------------------------------------------------------------------
# Remote queue backend
# ----------------------------------------------------------------------
class RemoteBackend(QueueBackend):
    """The :class:`QueueBackend` contract spoken to a ``repro dispatch``
    server over TCP — no shared filesystem anywhere.

    The handshake (``hello``) checks the protocol version and copies the
    server's backoff schedule onto this instance, so local
    ``_backoff_s`` predictions match what the dispatcher actually writes
    into ``not_before``.  Fencing is enforced server-side: every
    transition frame carries the job's ``worker_id`` token and the
    dispatcher's own sqlite backend applies the fenced UPDATE.
    """

    def __init__(
        self,
        address,
        *,
        timeout_s: float = 30.0,
        retry_window_s: float = 120.0,
        name: str = "queue",
        faults: "FaultPlan | None" = None,
    ) -> None:
        self._channel = DispatchChannel(
            address,
            timeout_s=timeout_s,
            retry_window_s=retry_window_s,
            name=name,
            faults=faults,
        )
        self.path = f"dispatch://{self._channel.address}"
        hello = self._channel.rpc("hello")
        protocol = hello.get("protocol")
        if protocol != DISPATCH_PROTOCOL_VERSION:
            self._channel.close()
            raise TransportError(
                f"dispatcher speaks protocol {protocol!r}, this client "
                f"needs {DISPATCH_PROTOCOL_VERSION}"
            )
        self.backoff_base_s = float(hello["backoff_base_s"])
        self.backoff_cap_s = float(hello["backoff_cap_s"])
        self.backoff_jitter = float(hello["backoff_jitter"])

    @property
    def address(self) -> str:
        """The dispatcher's ``host:port``."""
        return self._channel.address

    @property
    def reconnects(self) -> int:
        """How many times the channel re-dialed after a drop."""
        return self._channel.reconnects

    def submit(
        self,
        spec_key: str,
        fingerprint: str,
        spec: dict,
        payload: dict,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: "float | None" = None,
    ) -> bool:
        reply = self._channel.rpc(
            "submit",
            spec_key=spec_key,
            fingerprint=fingerprint,
            spec=spec,
            payload=payload,
            max_attempts=int(max_attempts),
            now=now,
        )
        return bool(reply["inserted"])

    def claim(
        self,
        worker_id: str,
        lease_s: float = DEFAULT_LEASE_S,
        now: "float | None" = None,
        wait_s: float = 0.0,
    ) -> "Job | None":
        """Lease a job; the dispatcher parks an empty claim up to ``wait_s``.

        ``wait_s`` must stay below the channel's ``timeout_s``: a parked
        claim that outlived the socket timeout would be re-sent by the
        reconnect path and lease a second job.
        """
        wait_s = check_wait_s(wait_s)
        if wait_s >= self._channel.timeout_s:
            raise ValueError(
                f"wait_s={wait_s:g} must be below the channel timeout_s="
                f"{self._channel.timeout_s:g}"
            )
        reply = self._channel.rpc(
            "claim",
            worker_id=worker_id,
            lease_s=float(lease_s),
            now=now,
            wait_s=wait_s,
        )
        if reply["job"] is None:
            return None
        return Job.from_dict(reply["job"])

    def heartbeat(self, job: Job, now: "float | None" = None) -> bool:
        reply = self._channel.rpc("heartbeat", job=job.to_dict(), now=now)
        return bool(reply["applied"])

    def complete(self, job: Job, now: "float | None" = None) -> bool:
        reply = self._channel.rpc("complete", job=job.to_dict(), now=now)
        return bool(reply["applied"])

    def fail(
        self,
        job: Job,
        error: str,
        tb: "str | None" = None,
        retryable: bool = True,
        now: "float | None" = None,
    ) -> "str | None":
        reply = self._channel.rpc(
            "fail",
            job=job.to_dict(),
            error=error,
            tb=tb,
            retryable=bool(retryable),
            now=now,
        )
        return reply["status"]

    def release(self, job: Job, now: "float | None" = None) -> bool:
        reply = self._channel.rpc("release", job=job.to_dict(), now=now)
        return bool(reply["applied"])

    def reap(self, now: "float | None" = None) -> int:
        return int(self._channel.rpc("reap", now=now)["reaped"])

    def reset(self, now: "float | None" = None) -> int:
        return int(self._channel.rpc("reset", now=now)["reopened"])

    def counts(self) -> "dict[str, int]":
        counts = self._channel.rpc("counts")["counts"]
        return {status: int(counts[status]) for status in STATUSES}

    def rows(self, status: "str | None" = None) -> "list[dict]":
        return self._channel.rpc("rows", status=status)["rows"]

    def close(self) -> None:
        self._channel.close()

    def spawn(self) -> "RemoteBackend":
        return RemoteBackend(
            (self._channel.host, self._channel.port),
            timeout_s=self._channel.timeout_s,
            retry_window_s=self._channel.retry_window_s,
            name=self._channel.name,
            faults=self._channel.faults,
        )

    def __repr__(self) -> str:
        return f"RemoteBackend({self.address!r})"


# ----------------------------------------------------------------------
# Remote result store
# ----------------------------------------------------------------------
class RemoteStore:
    """A worker-side result store writing through the dispatcher's disk.

    Drop-in for the slice of :class:`~repro.runtime.store.ResultStore`
    the execution path uses — ``get`` / ``get_many`` / ``put`` / ``has``
    / ``stats`` with the same ``hits`` / ``misses`` / ``stores`` / ``corrupt``
    counters — but entries live under the *dispatcher's* store root;
    nothing is written locally.  Addresses are the identical
    ``(spec_key, fingerprint)`` pairs, so a sweep collected on the
    dispatcher host afterwards is warm with zero re-evaluations.

    Integrity mirrors the on-disk store: ``put`` sends a payload
    checksum the dispatcher verifies before persisting (a corrupted
    upload raises ``ValueError`` instead of poisoning the shared cache),
    and ``get`` verifies the downloaded blob, counting a mismatch as
    ``corrupt`` + a miss so the caller re-evaluates.
    """

    def __init__(
        self,
        address,
        *,
        timeout_s: float = 30.0,
        retry_window_s: float = 120.0,
        name: str = "store",
        faults: "FaultPlan | None" = None,
    ) -> None:
        self._channel = DispatchChannel(
            address,
            timeout_s=timeout_s,
            retry_window_s=retry_window_s,
            name=name,
            faults=faults,
        )
        self.root = f"dispatch://{self._channel.address}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self._lock = threading.Lock()

    def get(
        self, spec_key: str, fingerprint: str
    ) -> "dict[str, np.ndarray] | None":
        """Fetch a result from the dispatcher's store, or None on miss."""
        reply = self._channel.rpc(
            "store_get", spec_key=spec_key, fingerprint=fingerprint
        )
        return self._verified(reply["payload"])

    def get_many(
        self, spec_key: str, fingerprints: "Sequence[str]"
    ) -> "list[dict[str, np.ndarray] | None]":
        """:meth:`get` for many fingerprints of one spec, in one round trip.

        Entries come back in ``fingerprints`` order, ``None`` for a miss.
        Each blob is verified on its own: a corrupt one counts as
        ``corrupt`` + a miss for that entry only.  A batch too large for
        one reply frame arrives over several.
        """
        fingerprints = list(fingerprints)
        payloads: list = []
        while len(payloads) < len(fingerprints):
            done = len(payloads)
            reply = self._channel.rpc(
                "store_get",
                spec_key=spec_key,
                fingerprints=fingerprints[done:done + _GET_BATCH],
            )
            if not reply["payloads"]:
                raise DispatchError("store_get answered an empty batch")
            payloads.extend(reply["payloads"])
        return [self._verified(payload) for payload in payloads]

    def _verified(self, payload) -> "dict[str, np.ndarray] | None":
        """Decode one downloaded blob, counting it as a hit or a miss."""
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            arrays = decode_payload(payload)
        except ValueError:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return arrays

    def put(
        self, spec_key: str, fingerprint: str, arrays: "dict[str, np.ndarray]"
    ) -> None:
        """Ship one result to the dispatcher's store (checksum-verified)."""
        if not arrays:
            raise ValueError("refusing to store an empty result")
        if CHECKSUM_KEY in arrays:
            raise ValueError(f"{CHECKSUM_KEY!r} is a reserved array name")
        self._channel.rpc(
            "store_put",
            spec_key=spec_key,
            fingerprint=fingerprint,
            payload=encode_payload(arrays),
        )
        with self._lock:
            self.stores += 1

    def has(self, spec_key: str, fingerprint: str) -> bool:
        """Whether the dispatcher's store holds this entry (no counters)."""
        reply = self._channel.rpc(
            "store_has", spec_key=spec_key, fingerprint=fingerprint
        )
        return bool(reply["has"])

    def stats(self) -> "dict[str, int]":
        """This instance's access counters (not the dispatcher's)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RemoteStore({self.root!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
