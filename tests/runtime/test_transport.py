"""Tests for the dispatch transport layer (codec, channel, remote client).

The backend *semantics* are covered by the parametrized conformance
suites (tests/runtime/test_queue.py, tests/properties/
test_queue_properties.py); this file covers what is specific to the
wire: the result-blob codec and its damage detection, address parsing,
reconnect-with-backoff through injected disconnects, the retry-window
give-up, protocol-version negotiation, and remote error typing.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.runtime.dispatcher import DispatcherThread
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.queue import ExperimentQueue
from repro.runtime.transport import (
    DISPATCH_PROTOCOL_VERSION,
    MAX_FRAME_BYTES,
    DispatchChannel,
    DispatchError,
    RemoteBackend,
    RemoteStore,
    TransportError,
    _backoff_jitter,
    decode_payload,
    encode_payload,
    parse_address,
)


@pytest.fixture
def dispatcher(tmp_path):
    with DispatcherThread(":memory:", str(tmp_path / "store")) as d:
        yield d


class TestPayloadCodec:
    def test_roundtrip_preserves_dtype_shape_and_bytes(self):
        arrays = {
            "f": np.linspace(0.0, 1.0, 7),
            "i": np.arange(12, dtype=np.int32).reshape(3, 4),
            "scalar": np.float64(3.25),  # 0-dim must survive (not (1,))
            "n": np.int64(42),
        }
        back = decode_payload(encode_payload(arrays))
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert np.array_equal(back[name], arr)

    def test_rejects_missing_arrays_key(self):
        with pytest.raises(ValueError, match="arrays"):
            decode_payload({"checksum": "x"})

    def test_rejects_base64_garbage(self):
        blob = encode_payload({"a": np.arange(3.0)})
        blob["arrays"]["a"]["data"] = "@@@not base64@@@"
        with pytest.raises(ValueError, match="malformed array"):
            decode_payload(blob)

    def test_rejects_bytes_that_do_not_tile_the_dtype(self):
        blob = encode_payload({"a": np.arange(3.0)})
        import base64

        blob["arrays"]["a"]["data"] = base64.b64encode(b"xyz").decode()
        with pytest.raises(ValueError, match="tile"):
            decode_payload(blob)

    def test_rejects_shape_mismatch(self):
        blob = encode_payload({"a": np.arange(6.0)})
        blob["arrays"]["a"]["shape"] = [7]
        with pytest.raises(ValueError, match="shape"):
            decode_payload(blob)

    def test_rejects_checksum_mismatch(self):
        blob = encode_payload({"a": np.arange(3.0)})
        import base64

        flipped = np.arange(3.0) + 1.0
        blob["arrays"]["a"]["data"] = base64.b64encode(
            flipped.tobytes()
        ).decode()
        with pytest.raises(ValueError, match="checksum"):
            decode_payload(blob)

    def test_rejects_absent_checksum(self):
        blob = encode_payload({"a": np.arange(3.0)})
        del blob["checksum"]
        with pytest.raises(ValueError, match="checksum"):
            decode_payload(blob)


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("localhost:7416") == ("localhost", 7416)

    def test_tuple_passthrough(self):
        assert parse_address(("127.0.0.1", 99)) == ("127.0.0.1", 99)

    def test_rejects_portless_string(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("just-a-host")


class TestBackoffJitter:
    def test_deterministic_and_uniform_range(self):
        values = [_backoff_jitter("k", "f", a) for a in range(32)]
        assert values == [_backoff_jitter("k", "f", a) for a in range(32)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)  # keyed by attempt


class TestDispatchChannel:
    def test_oversized_request_rejected_before_send(self, dispatcher):
        channel = DispatchChannel(dispatcher.address)
        try:
            with pytest.raises(ValueError, match="frame cap"):
                channel.rpc("submit", blob="x" * (MAX_FRAME_BYTES + 1))
        finally:
            channel.close()

    def test_closed_channel_refuses_rpc(self, dispatcher):
        channel = DispatchChannel(dispatcher.address)
        channel.close()
        with pytest.raises(TransportError, match="closed"):
            channel.rpc("hello")

    def test_unreachable_dispatcher_gives_up_after_window(self):
        # A bound-but-never-accepting port: connect succeeds and the
        # read side starves, or connect is refused — either way the
        # channel must give up within its retry window.
        victim = socket.socket()
        victim.bind(("127.0.0.1", 0))
        port = victim.getsockname()[1]
        victim.close()  # nothing listens here any more
        channel = DispatchChannel(
            ("127.0.0.1", port), timeout_s=0.2, retry_window_s=0.5
        )
        try:
            with pytest.raises(TransportError, match="unreachable"):
                channel.rpc("hello")
        finally:
            channel.close()

    def test_disconnect_injector_forces_reconnect(self, dispatcher):
        # Drop the socket before the 2nd and 4th counts call: both
        # requests must still succeed, through a re-dial each time.
        faults = FaultPlan(
            faults=(
                FaultSpec(kind="disconnect", match="chan:counts", attempts=(2, 4)),
            )
        )
        backend = RemoteBackend(dispatcher.address, name="chan", faults=faults)
        try:
            for _ in range(5):
                assert backend.counts()["open"] == 0
            assert backend.reconnects == 2
        finally:
            backend.close()

    def test_worker_kinds_are_ignored_by_the_channel(self, dispatcher):
        # error/crash/stall injectors belong to the worker loop; the
        # channel must not fire them even on a fingerprint match.
        faults = FaultPlan(
            faults=(
                FaultSpec(kind="error", match="chan:"),
                FaultSpec(kind="crash", match="chan:"),
                FaultSpec(kind="stall", match="chan:", stall_s=30.0),
            )
        )
        backend = RemoteBackend(dispatcher.address, name="chan", faults=faults)
        try:
            assert backend.counts()["open"] == 0
            assert backend.reconnects == 0
        finally:
            backend.close()


class TestRemoteBackend:
    def test_protocol_version_mismatch_refused(self):
        # A fake dispatcher speaking a future protocol, or protocol 1
        # (whose claim ignores wait_s, so an idle worker would spin
        # against it): the client must refuse the handshake, not limp
        # along.
        for protocol in (DISPATCH_PROTOCOL_VERSION + 1, 1):
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]

            def serve_once():
                conn, _ = listener.accept()
                fh = conn.makefile("rwb")
                fh.readline()
                fh.write(
                    json.dumps(
                        {
                            "ok": True,
                            "protocol": protocol,
                            "backoff_base_s": 0.5,
                            "backoff_cap_s": 30.0,
                            "backoff_jitter": 0.25,
                        }
                    ).encode()
                    + b"\n"
                )
                fh.flush()
                conn.close()

            thread = threading.Thread(target=serve_once, daemon=True)
            thread.start()
            try:
                with pytest.raises(TransportError, match="protocol"):
                    RemoteBackend(("127.0.0.1", port), retry_window_s=2.0)
            finally:
                listener.close()
                thread.join(timeout=5.0)

    def test_hello_copies_server_backoff_schedule(self, dispatcher):
        backend = RemoteBackend(dispatcher.address)
        try:
            server_backend = dispatcher.server.backend
            assert backend.backoff_base_s == server_backend.backoff_base_s
            assert backend.backoff_cap_s == server_backend.backoff_cap_s
            assert backend.backoff_jitter == server_backend.backoff_jitter
            # ... so local backoff predictions match server not_before.
            assert backend._backoff_s("k", "f", 3) == server_backend._backoff_s(
                "k", "f", 3
            )
        finally:
            backend.close()

    def test_path_is_a_dispatch_url(self, dispatcher):
        with ExperimentQueue(RemoteBackend(dispatcher.address)) as queue:
            assert queue.path.startswith("dispatch://127.0.0.1:")

    def test_spawn_opens_an_independent_connection(self, dispatcher):
        backend = RemoteBackend(dispatcher.address)
        clone = backend.spawn()
        try:
            backend.submit("k", "f", {}, {}, now=0.0)
            assert clone.counts()["open"] == 1
            backend.close()
            # The clone's own socket survives the original's close.
            assert clone.counts()["open"] == 1
        finally:
            clone.close()

    def test_non_builtin_remote_error_surfaces_as_dispatch_error(
        self, dispatcher
    ):
        backend = RemoteBackend(dispatcher.address)
        try:
            with pytest.raises(DispatchError, match="UnknownOp"):
                backend._channel.rpc("no_such_verb")
        finally:
            backend.close()


class TestRemoteStore:
    def test_put_get_has_roundtrip_with_counters(self, dispatcher):
        store = RemoteStore(dispatcher.address)
        try:
            assert store.get("k", "f") is None
            assert not store.has("k", "f")
            payload = {"x": np.arange(4.0), "n": np.int64(3)}
            store.put("k", "f", payload)
            assert store.has("k", "f")
            back = store.get("k", "f")
            assert np.array_equal(back["x"], payload["x"])
            assert back["n"] == 3
            assert store.stats() == {
                "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
            }
        finally:
            store.close()

    def test_put_validates_locally_before_any_network_io(self, dispatcher):
        store = RemoteStore(dispatcher.address)
        try:
            with pytest.raises(ValueError, match="empty"):
                store.put("k", "f", {})
            with pytest.raises(ValueError, match="reserved"):
                store.put("k", "f", {"__checksum__": np.arange(2.0)})
            assert store.stats()["stores"] == 0
        finally:
            store.close()

    def test_corrupt_download_counts_and_reads_as_miss(
        self, dispatcher, monkeypatch
    ):
        store = RemoteStore(dispatcher.address)
        try:
            store.put("k", "f", {"x": np.arange(4.0)})
            damaged = {
                "ok": True,
                "payload": {"arrays": {}, "checksum": "not-the-hash"},
            }
            monkeypatch.setattr(
                store._channel, "rpc", lambda op, **kw: damaged
            )
            assert store.get("k", "f") is None
            assert store.stats()["corrupt"] == 1
            assert store.stats()["misses"] == 1
        finally:
            store.close()

    def test_writes_land_in_the_dispatchers_disk_store(
        self, dispatcher
    ):
        remote = RemoteStore(dispatcher.address)
        try:
            remote.put("k", "f", {"x": np.arange(4.0)})
            local = dispatcher.server.store
            entry = local.get("k", "f")
            assert entry is not None
            assert np.array_equal(entry["x"], np.arange(4.0))
        finally:
            remote.close()


class TestRemoteStoreGetMany:
    """The batched read: one ``store_get`` round trip for many entries."""

    FINGERPRINTS = [f"f{i}" for i in range(6)]

    @staticmethod
    def _fill(store, fingerprints):
        for i, fingerprint in enumerate(fingerprints):
            store.put("k", fingerprint, {"x": np.arange(float(i + 1))})

    def test_matches_per_key_get_in_results_and_counters(self, dispatcher):
        batched = RemoteStore(dispatcher.address)
        single = RemoteStore(dispatcher.address)
        try:
            self._fill(batched, self.FINGERPRINTS[::2])
            got = batched.get_many("k", self.FINGERPRINTS)
            want = [single.get("k", f) for f in self.FINGERPRINTS]
            assert [g is None for g in got] == [w is None for w in want]
            assert [g is None for g in got] == [False, True] * 3
            for g, w in zip(got, want):
                if w is not None:
                    assert np.array_equal(g["x"], w["x"])
            counters = batched.stats()
            assert counters.pop("stores") == 3
            assert counters == {
                k: v for k, v in single.stats().items() if k != "stores"
            }
            assert batched._channel._op_counts["store_get"] == 1
            assert batched.get_many("k", []) == []
            assert batched._channel._op_counts["store_get"] == 1
        finally:
            batched.close()
            single.close()

    def test_a_corrupt_download_in_a_batch_misses_only_that_entry(
        self, dispatcher, monkeypatch
    ):
        store = RemoteStore(dispatcher.address)
        try:
            self._fill(store, self.FINGERPRINTS[:3])
            reply = store._channel.rpc(
                "store_get", spec_key="k", fingerprints=self.FINGERPRINTS[:3]
            )
            reply["payloads"][1]["checksum"] = "not-the-hash"
            monkeypatch.setattr(store._channel, "rpc", lambda op, **kw: reply)
            got = store.get_many("k", self.FINGERPRINTS[:3])
            assert got[1] is None
            assert np.array_equal(got[0]["x"], np.arange(1.0))
            assert np.array_equal(got[2]["x"], np.arange(3.0))
            assert store.stats() == {
                "hits": 2, "misses": 1, "stores": 3, "corrupt": 1,
            }
        finally:
            store.close()

    def test_a_damaged_entry_on_disk_is_quarantined_alone(self, dispatcher):
        store = RemoteStore(dispatcher.address)
        try:
            self._fill(store, self.FINGERPRINTS[:3])
            disk = dispatcher.server.store
            damaged = disk.path_for("k", self.FINGERPRINTS[1])
            damaged.write_bytes(b"not an npz archive")
            got = store.get_many("k", self.FINGERPRINTS[:3])
            assert [g is None for g in got] == [False, True, False]
            assert disk.corrupt == 1
            assert not damaged.exists()
            assert disk.path_for("k", self.FINGERPRINTS[0]).exists()
            assert disk.path_for("k", self.FINGERPRINTS[2]).exists()
        finally:
            store.close()

    def test_a_batch_past_the_frame_cap_arrives_over_several_replies(
        self, dispatcher
    ):
        # Three ~7 MiB blobs (base64 of 5 MiB each): two fit one frame.
        blobs = {
            f: np.full(5 * 1024 * 1024, i, dtype=np.uint8)
            for i, f in enumerate(self.FINGERPRINTS[:3])
        }
        store = RemoteStore(dispatcher.address)
        try:
            for fingerprint, blob in blobs.items():
                store.put("k", fingerprint, {"blob": blob})
            got = store.get_many("k", list(blobs))
            for entry, blob in zip(got, blobs.values()):
                assert np.array_equal(entry["blob"], blob)
            assert store._channel._op_counts["store_get"] == 2
            assert store.stats()["hits"] == 3
        finally:
            store.close()

    def test_a_long_read_is_split_into_several_requests(
        self, dispatcher, monkeypatch
    ):
        import repro.runtime.transport as transport_mod

        monkeypatch.setattr(transport_mod, "_GET_BATCH", 4)
        store = RemoteStore(dispatcher.address)
        try:
            self._fill(store, self.FINGERPRINTS)
            got = store.get_many("k", self.FINGERPRINTS)
            assert [len(entry["x"]) for entry in got] == [1, 2, 3, 4, 5, 6]
            assert store._channel._op_counts["store_get"] == 2
        finally:
            store.close()

    def test_a_batch_must_be_a_list(self, dispatcher):
        store = RemoteStore(dispatcher.address)
        try:
            with pytest.raises(TypeError, match="list"):
                store._channel.rpc(
                    "store_get", spec_key="k", fingerprints="f0"
                )
        finally:
            store.close()

    def test_a_warm_dataset_sweep_sends_one_store_get(self, dispatcher):
        from repro.api import Experiment, ExperimentSpec
        from repro.signals.dataset import DatasetSpec

        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=32, duration_s=1.0, seed=2015)
        store = RemoteStore(dispatcher.address)
        try:
            Experiment(spec, store=store).dataset_sweep(dataset)  # cold
            before = dict(store._channel._op_counts)
            warm = Experiment(spec, store=store).dataset_sweep(dataset)
            sent = {
                op: n - before.get(op, 0)
                for op, n in store._channel._op_counts.items()
                if n != before.get(op, 0)
            }
            assert sent == {"store_get": 1}
            assert store.stats()["hits"] == 32
        finally:
            store.close()
        serial = Experiment(spec).dataset_sweep(dataset)
        assert np.array_equal(warm.correlations_pct, serial.correlations_pct)
        assert np.array_equal(warm.n_events, serial.n_events)
