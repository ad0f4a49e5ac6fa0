"""Dispatcher-level protocol tests: raw frames against the server.

The conformance suites drive the dispatcher through ``RemoteBackend``;
this file speaks the wire directly to pin the server's handling of
protocol *violations* (malformed JSON, oversized frames, unknown verbs),
upload integrity (a checksum-corrupted ``store_put`` must not poison the
store), the fencing-token echo on ``complete``, and restart durability.
"""

import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime.dispatcher import DispatcherThread
from repro.runtime.transport import (
    MAX_FRAME_BYTES,
    RemoteBackend,
    RemoteStore,
    encode_payload,
)


@pytest.fixture
def dispatcher(tmp_path):
    with DispatcherThread(":memory:", str(tmp_path / "store")) as d:
        yield d


def raw_conn(dispatcher):
    """A plain blocking socket + buffered file to the dispatcher."""
    sock = socket.create_connection(dispatcher.address, timeout=30.0)
    return sock, sock.makefile("rwb")


def send_line(fh, line: bytes) -> None:
    fh.write(line + b"\n")
    fh.flush()


def rpc(fh, **frame) -> dict:
    send_line(fh, json.dumps(frame).encode())
    return json.loads(fh.readline())


class TestProtocolViolations:
    def test_malformed_json_gets_one_error_reply_then_drop(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            send_line(fh, b"{this is not json")
            reply = json.loads(fh.readline())
            assert reply["ok"] is False
            assert reply["error"] == "MalformedFrame"
            # Framing is unrecoverable: the server hangs up after the
            # reply instead of guessing where the next frame starts.
            assert fh.readline() == b""
        finally:
            fh.close()
            sock.close()

    def test_non_object_frame_is_malformed(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            send_line(fh, b"[1, 2, 3]")
            reply = json.loads(fh.readline())
            assert reply["ok"] is False
            assert reply["error"] == "MalformedFrame"
            assert "object" in reply["detail"]
            assert fh.readline() == b""
        finally:
            fh.close()
            sock.close()

    def test_oversized_frame_gets_frame_too_large_then_drop(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            send_line(fh, b"x" * (MAX_FRAME_BYTES + 1))
            reply = json.loads(fh.readline())
            assert reply["ok"] is False
            assert reply["error"] == "FrameTooLarge"
            assert fh.readline() == b""
        finally:
            fh.close()
            sock.close()

    def test_unknown_op_keeps_the_connection_usable(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            reply = rpc(fh, op="no_such_verb")
            assert reply["ok"] is False
            assert reply["error"] == "UnknownOp"
            # A typed error is NOT a framing failure: the very same
            # connection serves the next request.
            hello = rpc(fh, op="hello")
            assert hello["ok"] is True
            assert "protocol" in hello
        finally:
            fh.close()
            sock.close()

    def test_missing_op_field_is_unknown_op(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            reply = rpc(fh, noise=1)
            assert reply["ok"] is False
            assert reply["error"] == "UnknownOp"
        finally:
            fh.close()
            sock.close()


class TestStorePutIntegrity:
    def test_corrupt_upload_is_rejected_and_store_stays_clean(
        self, dispatcher
    ):
        blob = encode_payload({"x": np.arange(4.0)})
        blob["checksum"] = "0" * 64  # in-flight corruption
        sock, fh = raw_conn(dispatcher)
        try:
            reply = rpc(
                fh, op="store_put", spec_key="k", fingerprint="f",
                payload=blob,
            )
            assert reply["ok"] is False
            assert reply["error"] == "ValueError"
            assert "checksum" in reply["detail"]
            # The verify ran BEFORE the store write: no poisoned entry.
            assert rpc(
                fh, op="store_has", spec_key="k", fingerprint="f"
            )["has"] is False
            assert dispatcher.server.store.get("k", "f") is None
        finally:
            fh.close()
            sock.close()

    def test_structurally_broken_upload_is_a_typed_error(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            reply = rpc(
                fh, op="store_put", spec_key="k", fingerprint="f",
                payload={"not": "a payload"},
            )
            assert reply["ok"] is False
            assert reply["error"] == "ValueError"
            assert dispatcher.server.store.get("k", "f") is None
        finally:
            fh.close()
            sock.close()


class TestFencingOnTheWire:
    def test_late_complete_with_a_stale_token_is_refused(self, dispatcher):
        # The fencing token is (status='leased', worker_id): a complete
        # frame replaying a reclaimed lease must come back applied=false
        # while the live holder's frame lands.
        sock, fh = raw_conn(dispatcher)
        try:
            assert rpc(
                fh, op="submit", spec_key="s", fingerprint="f",
                spec={}, payload={"kind": "noop"}, max_attempts=3, now=0.0,
            )["inserted"] is True
            stale = rpc(
                fh, op="claim", worker_id="w1", lease_s=5.0, now=0.0
            )["job"]
            assert stale is not None
            # Lease expires; the reap requeues, a peer reclaims later
            # (past the retry backoff written by the reap).
            assert rpc(fh, op="reap", now=10.0)["reaped"] == 1
            live = rpc(
                fh, op="claim", worker_id="w2", lease_s=5.0, now=20.0
            )["job"]
            assert live is not None
            assert live["worker_id"] == "w2"
            # w1's late frame echoes its stale token: fenced off.
            assert rpc(fh, op="complete", job=stale, now=21.0)[
                "applied"
            ] is False
            assert rpc(fh, op="complete", job=live, now=21.0)[
                "applied"
            ] is True
            counts = rpc(fh, op="counts")["counts"]
            assert counts["done"] == 1
            assert counts["leased"] == 0
        finally:
            fh.close()
            sock.close()

    def test_stale_heartbeat_is_refused_too(self, dispatcher):
        sock, fh = raw_conn(dispatcher)
        try:
            rpc(
                fh, op="submit", spec_key="s", fingerprint="f",
                spec={}, payload={"kind": "noop"}, now=0.0,
            )
            stale = rpc(
                fh, op="claim", worker_id="w1", lease_s=5.0, now=0.0
            )["job"]
            rpc(fh, op="reap", now=10.0)
            assert rpc(fh, op="heartbeat", job=stale, now=10.5)[
                "applied"
            ] is False
        finally:
            fh.close()
            sock.close()


class TestParkedClaims:
    def test_parked_claims_leave_other_verbs_served(self, dispatcher):
        # More parked claims than asyncio's default thread pool has
        # threads (min(32, cpu + 4)): were they parked in pool threads,
        # every other verb would queue behind them.
        n = min(32, (os.cpu_count() or 1) + 4) + 2
        results = []

        def claimant(i):
            with RemoteBackend(dispatcher.address) as backend:
                job = backend.claim(f"w{i}", wait_s=10.0)
                if job is not None:
                    assert backend.complete(job)  # drains: all return
                results.append(job)

        threads = [
            threading.Thread(target=claimant, args=(i,), daemon=True)
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        # One hello and one empty claim attempt per claimant.
        while dispatcher.server.requests < 2 * n:
            assert time.monotonic() < deadline, "claims never parked"
            time.sleep(0.01)
        with RemoteBackend(dispatcher.address) as backend:
            with RemoteStore(dispatcher.address) as store:
                for call in (
                    backend.counts,
                    lambda: store.get("s", "fp"),
                    lambda: backend.submit("s", "fp0", {}, {"kind": "noop"}),
                ):
                    t0 = time.monotonic()
                    call()
                    assert time.monotonic() - t0 < 0.5
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == n
        assert sum(job is not None for job in results) == 1

    def test_a_hung_up_parked_claim_leases_nothing(self, dispatcher):
        # A worker killed while its claim is parked must not be handed
        # the next job: that lease would idle until it expired.
        sock, fh = raw_conn(dispatcher)
        send_line(fh, json.dumps(
            {"op": "claim", "worker_id": "dead", "wait_s": 10.0}
        ).encode())
        deadline = time.monotonic() + 10.0
        while dispatcher.server.requests < 1:
            assert time.monotonic() < deadline, "claim never parked"
            time.sleep(0.01)
        fh.close()
        sock.close()
        time.sleep(0.2)  # the hang-up reaches the dispatcher
        with RemoteBackend(dispatcher.address) as backend:
            backend.submit("s", "fp0", {}, {"kind": "noop"})
            time.sleep(0.2)  # the parked claim is woken by the submit
            assert backend.counts()["open"] == 1
            job = backend.claim("alive", wait_s=1.0)
            assert job is not None and job.attempt == 1


class TestStoreGetBatch:
    def test_a_batch_reply_is_a_prefix_that_fits_the_frame(
        self, dispatcher, monkeypatch
    ):
        import repro.runtime.dispatcher as dispatcher_mod

        payload = encode_payload({"x": np.arange(32.0)})
        size = len(json.dumps(payload, separators=(",", ":")))
        cap = 3 * size + 200  # room for three payloads, not six
        monkeypatch.setattr(dispatcher_mod, "MAX_FRAME_BYTES", cap)
        fingerprints = [f"f{i}" for i in range(6)]
        for fingerprint in fingerprints:
            dispatcher.server.store.put("k", fingerprint, {"x": np.arange(32.0)})
        sock, fh = raw_conn(dispatcher)
        try:
            send_line(fh, json.dumps({
                "op": "store_get", "spec_key": "k",
                "fingerprints": fingerprints + ["absent"],
            }).encode())
            line = fh.readline()
            assert len(line) <= cap
            first = json.loads(line)["payloads"]
            assert 0 < len(first) < len(fingerprints)
            rest = rpc(
                fh, op="store_get", spec_key="k",
                fingerprints=(fingerprints + ["absent"])[len(first):],
            )["payloads"]
        finally:
            fh.close()
            sock.close()
        assert len(first) + len(rest) == 7
        assert rest[-1] is None
        assert all(p is not None for p in first + rest[:-1])


class TestVerbsRunOnTheLoop:
    def test_serving_verbs_never_creates_a_default_executor(self, dispatcher):
        with RemoteBackend(dispatcher.address) as backend:
            with RemoteStore(dispatcher.address) as store:
                backend.submit("s", "fp0", {}, {"kind": "noop"})
                job = backend.claim("w", wait_s=1.0)
                assert backend.heartbeat(job)
                store.put("s", "fp0", {"x": np.arange(3.0)})
                assert store.get_many("s", ["fp0", "fp1"])[1] is None
                assert store.get("s", "fp0") is not None
                assert backend.complete(job)
                assert backend.claim("w", wait_s=1.0) is None  # drained
                assert backend.counts()["done"] == 1
        assert dispatcher.server.requests >= 9
        assert dispatcher._loop._default_executor is None


class TestRestartDurability:
    def test_rows_survive_a_dispatcher_restart(self, tmp_path):
        # The dispatcher is disposable: all durable state is the sqlite
        # file + store dir.  Stop it, start a fresh one on the same
        # paths, and the jobs table is exactly where it was.
        db = str(tmp_path / "q.db")
        store = str(tmp_path / "store")
        with DispatcherThread(db, store) as d:
            backend = RemoteBackend(d.address)
            try:
                for i in range(3):
                    backend.submit("s", f"fp{i}", {}, {"kind": "noop"}, now=0.0)
                job = backend.claim("w1", lease_s=30.0, now=0.0)
                assert backend.complete(job, now=1.0)
            finally:
                backend.close()

        with DispatcherThread(db, store) as d:
            backend = RemoteBackend(d.address)
            try:
                counts = backend.counts()
                assert counts["done"] == 1
                assert counts["open"] == 2
                fps = {r["fingerprint"] for r in backend.rows()}
                assert fps == {"fp0", "fp1", "fp2"}
            finally:
                backend.close()
