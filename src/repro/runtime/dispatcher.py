"""The queue dispatcher: one server, N workers, no shared mount.

``repro dispatch`` hosts a :class:`~repro.runtime.queue.SqliteBackend`
and a :class:`~repro.runtime.store.ResultStore` behind a TCP socket,
speaking the newline-delimited JSON framing of the streaming server
(:mod:`repro.runtime.server`): one JSON object per line in, one per
line out, frames capped at
:data:`~repro.runtime.transport.MAX_FRAME_BYTES`.  Workers connect with
:class:`~repro.runtime.transport.RemoteBackend` /
:class:`~repro.runtime.transport.RemoteStore` and get the exact
lease/fencing/retry semantics of the local sqlite queue — the
dispatcher adds no coordination logic of its own, it just applies each
verb to its backend, which is what keeps the two backends
behaviorally identical by construction.

Design notes:

* **The dispatcher is disposable.**  All durable state is the sqlite
  file and the store directory; SIGKILL the process mid-sweep, restart
  it on the same paths, and workers reconnect through their channel
  backoff while expired leases are reclaimed by the next ``claim``.
  Nothing in memory matters.
* **Fencing is enforced here**, by the backend's own conditional
  UPDATEs: every transition frame carries the claiming ``worker_id``
  token, so a presumed-dead worker's late ``complete`` returns
  ``applied: false`` instead of silently clobbering a peer's re-run.
* **Blob integrity is verified on both ends.**  ``store_put`` decodes
  and checksum-verifies the payload *before* touching the store (a
  corrupted upload is an error reply, not a poisoned cache entry);
  ``store_get`` re-encodes from disk with a fresh checksum the client
  verifies on arrival.
* **Every verb runs on the event loop.**  Verbs are short sqlite
  statements and small file reads/writes, and a hop through a pool
  thread cost more CPU than most verbs themselves.  The trade-off: a
  sqlite lock wait (another process writing the jobs file) stalls every
  connection until it clears.  It already stalled every queue verb,
  since they all share the backend's one connection and lock.
* **A collect is one round trip.**  ``store_get`` with
  ``fingerprints: [...]`` answers ``payloads: [...]`` (``null`` for a
  miss).  A reply never exceeds
  :data:`~repro.runtime.transport.MAX_FRAME_BYTES`: past that the
  dispatcher answers a prefix and the client asks for the rest.
* **Idle claims are parked, not polled.**  A ``claim`` with
  ``wait_s > 0`` that finds no job waits on the event loop between
  attempts, so any number of parked claims leave every other verb
  served.  Each successful mutating verb but ``heartbeat`` wakes the
  parked claims, which claim again; a parked claim answers with a job,
  with ``null`` as soon as the queue is drained, or with ``null`` once
  ``wait_s`` has passed.
* **Errors stay typed.**  A verb that raises is answered with
  ``{"ok": false, "error": "<TypeName>", "detail": ...}`` and the
  connection stays up; the client re-raises builtin validation types
  as themselves.  Only protocol violations (unparseable JSON, an
  oversized frame) drop the connection after a best-effort error reply.

See ``docs/DISPATCH.md`` for the verb-by-verb wire reference.
"""

from __future__ import annotations

import asyncio
import json
import threading

from .queue import SqliteBackend
from .store import ResultStore
from .transport import (
    DISPATCH_PROTOCOL_VERSION,
    MAX_FRAME_BYTES,
    Job,
    check_wait_s,
    decode_payload,
    drained,
    encode_payload,
)

__all__ = ["DispatcherServer", "DispatcherThread"]

# The verbs whose success can open a job or drain the queue: each one
# wakes the parked claims.
_WAKE_OPS = frozenset({"submit", "complete", "fail", "release", "reset", "reap"})

# Room a batch ``store_get`` reply keeps for its envelope
# (``{"payloads":[...],"ok":true}`` and the newline).
_REPLY_OVERHEAD = 64


class DispatcherServer:
    """The asyncio request/reply server over one sqlite backend + store.

    Parameters
    ----------
    db_path:
        The jobs database (``":memory:"`` is fine — the single backend
        connection is shared by every client, serialised by the
        backend's own lock).
    store_root:
        Directory for the content-addressed result store.
    host / port:
        Bind address; port 0 picks a free port (read :attr:`address`
        after :meth:`start`).

    Every verb runs on the event loop thread, with no pool-thread hop:
    the hop cost more CPU than the verbs.  A sqlite lock wait therefore
    stalls every connection, as it already stalled every queue verb
    through the backend's shared lock.  An empty waiting ``claim`` parks
    on the loop between attempts.
    """

    def __init__(
        self,
        db_path: str,
        store_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.backend = SqliteBackend(db_path)
        self.store = ResultStore(store_root)
        self.host = host
        self.port = int(port)
        self._server: "asyncio.base_events.Server | None" = None
        self._stopping: "asyncio.Event | None" = None
        self._wake: "asyncio.Event | None" = None  # set + replaced per wake
        self.connections = 0  # lifetime accepted connections
        self.requests = 0  # lifetime verbs applied (each parked-claim attempt)

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (resolves port 0 after start)."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._stopping = asyncio.Event()
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Begin shutdown; ``serve_forever`` returns once drained."""
        if self._stopping is not None:
            self._stopping.set()
            self._wake_claims()  # parked claims answer instead of waiting

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop`; then close everything."""
        await self.start()
        await self._stopping.wait()
        self._server.close()
        await self._server.wait_closed()
        self.backend.close()

    async def _handle_connection(self, reader, writer) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    # An over-cap frame: the stream is unframed garbage
                    # from here on, so answer once and hang up.
                    await self._reply(
                        writer,
                        {
                            "ok": False,
                            "error": "FrameTooLarge",
                            "detail": (
                                f"request frame exceeds the "
                                f"{MAX_FRAME_BYTES}-byte cap"
                            ),
                        },
                    )
                    return
                if not line:
                    return  # client hung up
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request frame must be a JSON object")
                except (UnicodeDecodeError, ValueError) as exc:
                    # Malformed JSON: framing is unrecoverable, hang up.
                    await self._reply(
                        writer,
                        {
                            "ok": False,
                            "error": "MalformedFrame",
                            "detail": str(exc),
                        },
                    )
                    return
                reply = await self._serve(request, reader)
                await self._reply(writer, reply)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A task cancelled at loop shutdown re-raises from any
                # await; the socket is closed either way.
                pass

    @staticmethod
    async def _reply(writer, reply: dict) -> None:
        writer.write(json.dumps(reply, separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    async def _serve(self, request: dict, reader) -> dict:
        """Apply one verb on the loop; park an empty waiting claim."""
        op = request.get("op")
        wait_s = request.get("wait_s") if op == "claim" else None
        if isinstance(wait_s, (int, float)) and wait_s > 0:
            return await self._parked_claim(request, wait_s, reader)
        reply = self._dispatch(request)
        if reply["ok"] and op in _WAKE_OPS:
            self._wake_claims()
        return reply

    async def _parked_claim(self, request: dict, wait_s: float, reader) -> dict:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait_s
        while True:
            wake = self._wake  # taken before the attempt: no lost wakeup
            reply = self._dispatch(request)
            if not reply["ok"] or reply["job"] is not None or reply.pop("drained"):
                return reply
            remaining = deadline - loop.time()
            if remaining <= 0 or self._stopping.is_set():
                return reply
            try:
                await asyncio.wait_for(wake.wait(), remaining)
            except asyncio.TimeoutError:
                return reply
            if self._stopping.is_set() or reader.at_eof() or reader.exception():
                # The backend is closing, or the client hung up: a lease
                # taken now would idle until it expired.
                return reply

    def _wake_claims(self) -> None:
        """Release every parked claim to claim again (event-loop thread)."""
        self._wake.set()
        self._wake = asyncio.Event()

    # ------------------------------------------------------------------
    # Verb dispatch (runs on the event loop)
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {
                "ok": False,
                "error": "UnknownOp",
                "detail": f"unknown dispatch op {op!r}",
            }
        try:
            reply = handler(request)
        except Exception as exc:  # typed error reply, connection stays up
            return {
                "ok": False,
                "error": type(exc).__name__,
                "detail": str(exc),
            }
        self.requests += 1
        reply["ok"] = True
        return reply

    def _op_hello(self, request: dict) -> dict:
        return {
            "protocol": DISPATCH_PROTOCOL_VERSION,
            "backoff_base_s": self.backend.backoff_base_s,
            "backoff_cap_s": self.backend.backoff_cap_s,
            "backoff_jitter": self.backend.backoff_jitter,
        }

    def _op_submit(self, request: dict) -> dict:
        inserted = self.backend.submit(
            str(request["spec_key"]),
            str(request["fingerprint"]),
            request["spec"],
            request["payload"],
            max_attempts=int(request.get("max_attempts", 3)),
            now=request.get("now"),
        )
        return {"inserted": inserted}

    def _op_claim(self, request: dict) -> dict:
        # One attempt, never a wait here: the event loop parks a waiting
        # claim, told by ``drained`` whether to go on.
        wait_s = check_wait_s(request.get("wait_s") or 0.0)
        job = self.backend.claim(
            str(request["worker_id"]),
            lease_s=request.get("lease_s", 30.0),
            now=request.get("now"),
        )
        if job is not None:
            return {"job": job.to_dict()}
        reply = {"job": None}
        if wait_s > 0:
            reply["drained"] = drained(self.backend.counts())
        return reply

    def _op_heartbeat(self, request: dict) -> dict:
        job = Job.from_dict(request["job"])
        return {"applied": self.backend.heartbeat(job, now=request.get("now"))}

    def _op_complete(self, request: dict) -> dict:
        job = Job.from_dict(request["job"])
        return {"applied": self.backend.complete(job, now=request.get("now"))}

    def _op_fail(self, request: dict) -> dict:
        job = Job.from_dict(request["job"])
        status = self.backend.fail(
            job,
            str(request["error"]),
            tb=request.get("tb"),
            retryable=bool(request.get("retryable", True)),
            now=request.get("now"),
        )
        return {"status": status}

    def _op_release(self, request: dict) -> dict:
        job = Job.from_dict(request["job"])
        return {"applied": self.backend.release(job, now=request.get("now"))}

    def _op_reap(self, request: dict) -> dict:
        return {"reaped": self.backend.reap(now=request.get("now"))}

    def _op_reset(self, request: dict) -> dict:
        return {"reopened": self.backend.reset(now=request.get("now"))}

    def _op_counts(self, request: dict) -> dict:
        return {"counts": self.backend.counts()}

    def _op_rows(self, request: dict) -> dict:
        return {"rows": self.backend.rows(request.get("status"))}

    def _op_store_put(self, request: dict) -> dict:
        # Decode verifies the in-flight checksum BEFORE the store write;
        # the store's own put re-checksums for the at-rest copy.
        arrays = decode_payload(request["payload"])
        self.store.put(
            str(request["spec_key"]), str(request["fingerprint"]), arrays
        )
        return {"stored": True}

    def _op_store_get(self, request: dict) -> dict:
        spec_key = str(request["spec_key"])
        if "fingerprints" not in request:
            arrays = self.store.get(spec_key, str(request["fingerprint"]))
            return {
                "payload": None if arrays is None else encode_payload(arrays)
            }
        fingerprints = request["fingerprints"]
        if not isinstance(fingerprints, list):
            raise TypeError("store_get fingerprints must be a list")
        # The batch form answers the longest prefix that fits one frame
        # (at least one entry, so every reply makes progress); the
        # client asks again for the rest.
        budget = MAX_FRAME_BYTES - _REPLY_OVERHEAD
        payloads = []
        for fingerprint in fingerprints:
            arrays = self.store.get(spec_key, str(fingerprint))
            payload = None if arrays is None else encode_payload(arrays)
            budget -= len(json.dumps(payload, separators=(",", ":"))) + 1
            if budget < 0 and payloads:
                break
            payloads.append(payload)
        return {"payloads": payloads}

    def _op_store_has(self, request: dict) -> dict:
        path = self.store.path_for(
            str(request["spec_key"]), str(request["fingerprint"])
        )
        return {"has": path.exists()}


class DispatcherThread:
    """An in-process dispatcher on a daemon thread (tests, benchmarks).

    ``with DispatcherThread(db, store) as d:`` yields a running server;
    ``d.address`` is the ``(host, port)`` workers dial.  Exit requests a
    stop and joins the thread.
    """

    def __init__(
        self,
        db_path: str,
        store_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = DispatcherServer(db_path, store_root, host=host, port=port)
        self._started = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def address(self) -> "tuple[str, int]":
        return self.server.address

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def start(self) -> "DispatcherThread":
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("dispatcher thread failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "DispatcherThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
