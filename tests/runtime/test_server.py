"""Tests for the streaming session server and its client.

The load-bearing contract is inherited from ``SessionBatch`` and must
survive the socket boundary: every session's finalized stream/envelope
is bit-identical to the scalar streaming pipeline fed the same chunks.
On top of that sit the operational semantics only a long-running server
has: backpressure (``busy``), load-shedding (newest-joined first), idle
reaping, fault paths (malformed frames, disconnects, push-after-
finalize) and the graceful drain contract (in-process here; the honest
subprocess SIGTERM leg is ``TestSigtermDrain``).
"""

import asyncio
import json
import os
import signal

import numpy as np
import pytest

from repro.core.config import ATCConfig, DATCConfig
from repro.core.encoders import ATCEncoder, DATCEncoder
from repro.runtime.client import ServerBusy, ServerReplyError, StreamingClient
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.server import (
    SessionServer,
    pack_array,
    unpack_floats,
    unpack_ints,
)
from repro.runtime.sessions import SessionSpec
from repro.rx.decoders import StreamingDecoder

FS = 2500.0


def scalar_reference(scheme, config, chunks, fs=FS, **rx):
    """The scalar streaming pipeline the server must match bit-for-bit."""
    encoder_cls = ATCEncoder if scheme == "atc" else DATCEncoder
    enc = encoder_cls(fs, config, rectify=True)
    dec = StreamingDecoder(
        scheme=scheme,
        config=config,
        fs_out=rx.get("fs_out", 100.0),
        window_s=rx.get("window_s", 0.25),
    )
    for c in chunks:
        dec.push(enc.push(c))
    enc.finalize()
    dec.push(enc.drain())
    dec.finalize()
    return enc.stream, dec.envelope


def chunked(x, size):
    return [x[i : i + size] for i in range(0, x.size, size)]


def serve(coro_fn, **server_kwargs):
    """Run ``coro_fn(server)`` against a live loopback server."""

    async def main():
        server = SessionServer(port=0, **server_kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.aclose()

    return asyncio.run(main())


async def connect(server, **kwargs):
    host, port = server.address
    return await StreamingClient.connect(host, port, **kwargs)


class TestWireFormat:
    def test_pack_unpack_floats_bit_exact(self, rng):
        x = rng.normal(size=257)
        out = unpack_floats(pack_array(x))
        assert np.array_equal(out, x)
        assert out.dtype == np.float64

    def test_pack_unpack_ints(self):
        levels = np.array([1, -2, 3], dtype=np.int64)
        assert np.array_equal(unpack_ints(pack_array(levels)), levels)

    def test_none_passes_through(self):
        assert pack_array(None) is None
        assert unpack_floats(None) is None

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            unpack_floats("@@@not base64@@@")
        with pytest.raises(ValueError):
            unpack_floats(pack_array(np.arange(3.0))[:-4])  # truncated


class TestSpecWire:
    def test_from_dict_round_trips(self):
        for spec in (
            SessionSpec(scheme="atc", fs=FS, config=ATCConfig(vth=0.2)),
            SessionSpec(
                scheme="datc", fs=2000.0, config=DATCConfig(quantized=True),
                fs_out=200.0, window_s=0.5, rectify=False,
            ),
        ):
            clone = SessionSpec.from_dict(spec.to_dict())
            assert clone == spec
            assert clone.key() == spec.key()

    def test_from_dict_survives_json(self):
        spec = SessionSpec(scheme="datc", fs=FS)
        clone = SessionSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.key() == spec.key()

    def test_version_and_unknown_fields_rejected(self):
        data = SessionSpec(fs=FS).to_dict()
        with pytest.raises(ValueError, match="version"):
            SessionSpec.from_dict({**data, "version": 999})
        with pytest.raises(ValueError, match="unknown"):
            SessionSpec.from_dict({**data, "bogus": 1})

    def test_bad_config_type_rejected(self):
        data = SessionSpec(fs=FS).to_dict()
        data["config_type"] = "Nonsense"
        with pytest.raises(ValueError, match="config_type"):
            SessionSpec.from_dict(data)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scheme,config",
        [("atc", ATCConfig()), ("datc", DATCConfig(quantized=True))],
    )
    def test_envelope_bit_identical_through_socket(self, scheme, config, rng):
        sig = rng.normal(0, 0.3, size=int(FS * 1.2))
        chunks = chunked(sig, 700)
        spec = SessionSpec(scheme=scheme, fs=FS, config=config)
        stream_ref, env_ref = scalar_reference(scheme, config, chunks)

        async def scenario(server):
            client = await connect(server)
            sid = await client.create(spec)
            for c in chunks:
                await client.push(sid, c)
            result = await client.finalize(sid)
            await client.close()
            return result

        result = serve(scenario)
        assert np.array_equal(result.envelope, env_ref)
        assert np.array_equal(result.stream.times, stream_ref.times)
        if stream_ref.levels is not None:
            assert np.array_equal(result.stream.levels, stream_ref.levels)
        assert result.stream.duration_s == stream_ref.duration_s

    def test_many_sessions_mixed_specs_push_all(self, rng):
        specs = [
            SessionSpec(scheme="atc", fs=FS),
            SessionSpec(scheme="datc", fs=FS),
        ]
        sigs = [rng.normal(0, 0.3, size=int(FS * 0.9)) for _ in range(6)]
        refs = [
            scalar_reference(
                specs[i % 2].scheme, specs[i % 2].config, chunked(s, 500)
            )
            for i, s in enumerate(sigs)
        ]

        async def scenario(server):
            client = await connect(server)
            sids = [await client.create(specs[i % 2]) for i in range(6)]
            for k in range(0, sigs[0].size, 500):
                await client.push_all(
                    {sid: sigs[i][k : k + 500] for i, sid in enumerate(sids)}
                )
            stats = await client.stats()
            assert stats["groups"] == 2  # spec-keyed grouping
            out = [await client.finalize(sid) for sid in sids]
            await client.close()
            return out

        results = serve(scenario)
        for result, (stream_ref, env_ref) in zip(results, refs):
            assert np.array_equal(result.envelope, env_ref)
            assert np.array_equal(result.stream.times, stream_ref.times)

    def test_create_many_and_drain_prefix(self, rng):
        sig = rng.normal(0, 0.3, size=int(FS * 1.0))
        spec = SessionSpec(scheme="datc", fs=FS)

        async def scenario(server):
            client = await connect(server)
            sids = await client.create_many(spec, 3)
            assert len(set(sids)) == 3
            for c in chunked(sig, 600):
                await client.push_all({sid: c for sid in sids})
            mid = await client.drain(sids[0])
            result = await client.finalize(sids[0])
            await client.close()
            return mid, result

        mid, result = serve(scenario)
        n = mid.times.size
        assert np.array_equal(mid.times, result.stream.times[:n])

    def test_request_id_echoed(self):
        async def scenario(server):
            client = await connect(server)
            client._send({"op": "stats", "id": 41})
            await client._writer.drain()
            reply = await client._read_reply()
            await client.close()
            return reply

        reply = serve(scenario)
        assert reply["id"] == 41 and reply["ok"]


class TestBackpressure:
    def test_busy_when_queue_full_then_recovers(self, rng):
        sig = rng.normal(0, 0.3, size=int(FS * 0.8))
        chunks = chunked(sig, 500)
        spec = SessionSpec(scheme="datc", fs=FS)
        _, env_ref = scalar_reference("datc", spec.config, chunks)

        async def scenario(server):
            client = await connect(server)
            sid = await client.create(spec)
            server.pause_pump()
            for c in chunks[:2]:
                await client.push(sid, c)
            with pytest.raises(ServerBusy):
                await client.push(sid, chunks[2], retry_busy=False)
            stats = await client.stats()
            assert stats["n_busy"] == 1
            assert stats["pending_chunks"] == 2
            server.resume_pump()
            for c in chunks[2:]:
                await client.push(sid, c)
            result = await client.finalize(sid)
            await client.close()
            return result

        result = serve(scenario, max_pending=2)
        assert np.array_equal(result.envelope, env_ref)


class TestLoadShedding:
    def test_sheds_newest_joined_first(self, rng):
        spec = SessionSpec(scheme="datc", fs=FS)
        sig = rng.normal(0, 0.3, size=int(FS * 0.8))
        chunks = chunked(sig, 500)
        _, env_ref = scalar_reference("datc", spec.config, chunks)

        async def scenario(server):
            client = await connect(server)
            old = await client.create(spec)
            new = await client.create(spec)
            server.pause_pump()
            await client.push(old, chunks[0])
            await client.push(old, chunks[1])
            await client.push(new, chunks[0])
            # This push tips the global budget: the newest-joined
            # session (its owner included) is shed, not the oldest.
            with pytest.raises(ServerReplyError, match="shed"):
                await client.push(new, chunks[1], retry_busy=False)
            with pytest.raises(ServerReplyError, match="shed"):
                await client.push(new, chunks[1], retry_busy=False)
            stats = await client.stats()
            assert stats["n_shed"] == 1
            assert stats["active_sessions"] == 1
            server.resume_pump()
            for c in chunks[2:]:
                await client.push(old, c)
            result = await client.finalize(old)
            await client.close()
            return result

        result = serve(scenario, max_pending=10, max_total_pending=3)
        assert np.array_equal(result.envelope, env_ref)


class TestReaping:
    def test_idle_session_reaped(self, rng):
        spec = SessionSpec(scheme="datc", fs=FS)

        async def scenario(server):
            client = await connect(server)
            sid = await client.create(spec)
            await client.push(sid, rng.normal(size=500))
            await asyncio.sleep(0.3)
            with pytest.raises(ServerReplyError, match="reaped"):
                await client.push(sid, np.zeros(10), retry_busy=False)
            stats = await client.stats()
            await client.close()
            return stats

        stats = serve(scenario, silence_timeout_s=0.05, tick_s=0.01)
        assert stats["n_reaped"] == 1
        assert stats["active_sessions"] == 0


class TestFaultPaths:
    def test_malformed_frame_drops_connection_only(self):
        async def scenario(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["error"] == "malformed"
            assert await reader.readline() == b""  # connection dropped
            writer.close()
            # The server survives and keeps serving new clients.
            client = await connect(server)
            sid = await client.create(SessionSpec(fs=FS))
            stats = await client.stats()
            await client.close()
            return sid, stats

        sid, stats = serve(scenario)
        assert sid >= 0
        assert stats["n_malformed"] == 1

    def test_push_after_finalize_rejected(self, rng):
        async def scenario(server):
            client = await connect(server)
            sid = await client.create(SessionSpec(scheme="datc", fs=FS))
            await client.push(sid, rng.normal(size=int(FS * 0.6)))
            await client.finalize(sid)
            with pytest.raises(ServerReplyError, match="finalized"):
                await client.push(sid, np.zeros(5), retry_busy=False)
            with pytest.raises(ServerReplyError, match="finalized"):
                await client.finalize(sid)
            await client.close()

        serve(scenario)

    def test_unknown_and_bad_sid(self):
        async def scenario(server):
            client = await connect(server)
            with pytest.raises(ServerReplyError, match="unknown-session"):
                await client.push(12345, np.zeros(5), retry_busy=False)
            client._send({"op": "push", "sid": "nope", "data": None})
            await client._writer.drain()
            reply = await client._read_reply()
            assert reply["error"] in ("bad-sid", "bad-chunk")
            await client.close()

        serve(scenario)

    def test_bad_chunk_and_bad_spec(self):
        async def scenario(server):
            client = await connect(server)
            sid = await client.create(SessionSpec(fs=FS))
            for frame in (
                {"op": "push", "sid": sid, "data": "%%%"},
                {"op": "push", "sid": sid},
                {"op": "pushm", "sids": [sid], "lens": [7],
                 "data": pack_array(np.zeros(3))},
                {"op": "pushm", "sids": [sid], "lens": "x", "data": None},
            ):
                client._send(frame)
                await client._writer.drain()
                reply = await client._read_reply()
                assert reply["ok"] is False
                assert reply["error"] == "bad-chunk"
            client._send({"op": "create", "spec": {"fs": -3.0}})
            await client._writer.drain()
            reply = await client._read_reply()
            assert reply["error"] == "bad-spec"
            client._send({"op": "frobnicate"})
            await client._writer.drain()
            assert (await client._read_reply())["error"] == "unknown-op"
            await client.close()

        serve(scenario)

    def test_samples_list_accepted(self):
        async def scenario(server):
            client = await connect(server)
            sid = await client.create(SessionSpec(fs=FS))
            client._send({"op": "push", "sid": sid, "samples": [0.1, -0.2]})
            await client._writer.drain()
            reply = await client._read_reply()
            await client.close()
            return reply

        assert serve(scenario)["ok"] is True

    def test_server_full(self):
        async def scenario(server):
            client = await connect(server)
            await client.create(SessionSpec(fs=FS))
            with pytest.raises(ServerReplyError, match="server-full"):
                await client.create(SessionSpec(fs=FS))
            with pytest.raises(ServerReplyError, match="server-full"):
                await client.create_many(SessionSpec(fs=FS), 5)
            await client.close()

        serve(scenario, max_sessions=1)

    def test_disconnect_orphans_sessions_server_survives(self, rng):
        sig = rng.normal(0, 0.3, size=int(FS * 0.8))
        spec = SessionSpec(scheme="datc", fs=FS)
        _, env_ref = scalar_reference("datc", spec.config, chunked(sig, 500))

        async def scenario(server):
            victim = await connect(server)
            vsid = await victim.create(spec)
            await victim.push(vsid, sig[:500])
            survivor = await connect(server)
            ssid = await survivor.create(spec)
            victim.abort()  # cable pull: no close verb, no FIN dance
            for c in chunked(sig, 500):
                await survivor.push(ssid, c)
            # Wait for the server to notice the dead transport.
            for _ in range(200):
                stats = await survivor.stats()
                if stats["n_orphaned"]:
                    break
                await asyncio.sleep(0.01)
            assert stats["n_orphaned"] == 1
            result = await survivor.finalize(ssid)
            await survivor.close()
            return result

        result = serve(scenario)
        assert np.array_equal(result.envelope, env_ref)

    def test_fault_plan_disconnect_injector_replays(self, rng):
        """The chaos rig's ``disconnect`` kind fires deterministically."""
        spec = SessionSpec(scheme="datc", fs=FS)
        sig = rng.normal(0, 0.3, size=1500)

        async def scenario(server):
            client = await connect(server, name="chaos")
            sid = await client.create(spec)
            plan = FaultPlan(
                faults=(
                    FaultSpec(
                        kind="disconnect",
                        match=f"chaos:{sid}",
                        attempts=(2,),
                    ),
                )
            )
            client.faults = plan
            await client.push(sid, sig[:500])  # attempt 1: delivered
            with pytest.raises(ConnectionResetError):
                await client.push(sid, sig[500:1000])  # attempt 2: cut
            # Transport is gone: even unmatched pushes now fail.
            with pytest.raises(ConnectionError):
                await client.push(sid, sig[1000:])
            other = await connect(server)
            for _ in range(200):
                stats = await other.stats()
                if stats["n_orphaned"]:
                    break
                await asyncio.sleep(0.01)
            await other.close()
            return stats

        stats = serve(scenario)
        assert stats["n_orphaned"] == 1
        assert stats["n_pushed_chunks"] == 1


class TestDrain:
    def test_in_process_drain_finalizes_and_notifies(self, rng):
        spec = SessionSpec(scheme="datc", fs=FS)
        sigs = [rng.normal(0, 0.3, size=int(FS * 0.8)) for _ in range(3)]
        refs = [
            scalar_reference("datc", spec.config, chunked(s, 500))
            for s in sigs
        ]

        async def scenario(server):
            client = await connect(server)
            sids = [await client.create(spec) for _ in sigs]
            for sid, sig in zip(sids, sigs):
                for c in chunked(sig, 500):
                    await client.push(sid, c)
            server.request_drain()
            # Verbs are refused while the drain completes.
            assert server._op_create(None, {"op": "create"}) == {
                "ok": False,
                "error": "draining",
            }
            notices = {}
            while len(notices) < len(sids):
                notice = await client.wait_event(timeout=10.0)
                if notice.get("event") == "drained":
                    notices[notice["sid"]] = notice
            stats = await server.serve_forever()
            return sids, notices, stats, server.n_sessions

        sids, notices, stats, left = serve(scenario)
        assert left == 0
        assert stats.n_drain_finalized == 3
        for sid, (stream_ref, env_ref) in zip(sids, refs):
            notice = notices[sid]
            assert notice["ok"] is True
            assert np.array_equal(unpack_floats(notice["envelope"]), env_ref)
            assert notice["n_events"] == stream_ref.n_events

    def test_drain_counts_too_short_sessions_aborted(self):
        async def scenario(server):
            client = await connect(server)
            await client.create(SessionSpec(scheme="datc", fs=FS))
            server.request_drain()
            notice = await client.wait_event(timeout=10.0)
            stats = await server.serve_forever()
            return notice, stats, server.n_sessions

        notice, stats, left = serve(scenario)
        assert left == 0
        assert notice["ok"] is False and notice["error"] == "too-short"
        assert stats.n_aborted == 1


class TestSigtermDrain:
    def test_subprocess_sigterm_exits_zero_unfinalized_zero(self, tmp_path, rng):
        from repro.cli import _spawn_repro, _wait_ready

        spec = SessionSpec(scheme="datc", fs=FS)
        sig = rng.normal(0, 0.3, size=int(FS * 0.8))
        _, env_ref = scalar_reference("datc", spec.config, chunked(sig, 500))
        ready = os.fspath(tmp_path / "ready")
        proc = _spawn_repro(["serve", "--port", "0", "--ready-file", ready])
        try:
            [(_pid, host, port)] = _wait_ready(
                [(proc, ready)], "serve", address=True
            )

            async def drive():
                client = await StreamingClient.connect(host, port)
                sid = await client.create(spec)
                for c in chunked(sig, 500):
                    await client.push(sid, c)
                proc.send_signal(signal.SIGTERM)
                while True:
                    notice = await client.wait_event(timeout=30.0)
                    if notice.get("event") == "drained":
                        client.abort()
                        return notice

            notice = asyncio.run(drive())
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "unfinalized 0" in out
        assert notice["ok"] is True
        assert np.array_equal(unpack_floats(notice["envelope"]), env_ref)


class TestServerConstruction:
    def test_bad_parameters_rejected(self):
        for kwargs in (
            {"max_sessions": 0},
            {"max_pending": 0},
            {"max_total_pending": 0},
            {"silence_timeout_s": 0.0},
            {"tick_s": 0.0},
        ):
            with pytest.raises(ValueError):
                SessionServer(**kwargs)

    def test_address_requires_start(self):
        with pytest.raises(RuntimeError):
            SessionServer().address
