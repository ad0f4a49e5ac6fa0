"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_highest_supported_percentile_leaves_ten_samples_beyond():
    assert common.highest_supported_pct(10) is None
    for n in (11, 50, 100, 999, 1000, 5000):
        pct = common.highest_supported_pct(n)
        rank = math.ceil(pct / 100.0 * n)
        assert n - rank == 10
        # Any higher percentile would leave fewer than ten beyond.
        assert n - math.ceil((pct + 1e-9) / 100.0 * n) < 10


def test_tail_uses_target_when_supported_and_reports_count():
    samples = list(range(1, 1001))  # 1..1000
    t = common.tail(samples, 99.0)
    assert t["tail_pct"] == 99.0 and t["n"] == 1000
    assert t["tail"] == 990.0  # ten samples (991..1000) beyond it
    assert t["p50"] == 500.0


def test_tail_falls_back_to_the_highest_supported_percentile():
    samples = list(range(1, 201))
    t = common.tail(samples, 99.0)
    assert t["tail_pct"] == pytest.approx(95.0)
    assert t["tail"] == 190.0
    assert sum(1 for x in samples if x > t["tail"]) == 10
    few = common.tail([3.0, 1.0, 2.0], 90.0)
    assert few["tail_pct"] == 50.0 and few["tail"] == 2.0 and few["n"] == 3


# ----------------------------------------------------------------------
# error_ratio counting
# ----------------------------------------------------------------------
def test_tally_counts_failures_against_attempts():
    tally = common.Tally()
    tally.check(True, "fine", n=8)
    tally.check(False, "busy", n=2)
    tally.fail("shed")
    assert (tally.attempted, tally.failed) == (11, 3)
    assert tally.error_ratio == pytest.approx(3 / 11)
    assert tally.reasons == {"busy": 2, "shed": 1}


def _golden_result(golden: dict):
    def sweep(scheme):
        return types.SimpleNamespace(
            correlations_pct=np.array(golden[scheme]["corr"]),
            n_events=np.array(golden[scheme]["events"]),
        )

    return types.SimpleNamespace(atc=sweep("atc"), datc=sweep("datc"))


def test_a_corrupted_fig5_output_is_counted():
    import wl_fig5

    with open(wl_fig5.GOLDEN) as fh:
        golden = json.load(fh)["seeds"]["2015"]
    tally = common.Tally()
    wl_fig5.check(_golden_result(golden), golden, tally)
    assert tally.failed == 0 and tally.attempted == 2 * wl_fig5.N_PATTERNS + 1

    corrupted = _golden_result(golden)
    corr = corrupted.datc.correlations_pct
    corr[3] = np.nextafter(corr[3], np.inf)  # one ulp off
    corrupted.atc.n_events[0] += 1
    tally = common.Tally()
    wl_fig5.check(corrupted, golden, tally)
    assert tally.failed == 2
    assert tally.error_ratio == pytest.approx(2 / (2 * wl_fig5.N_PATTERNS + 1))


def test_fig5_band_check_fails_outside_the_paper_band():
    import wl_fig5

    with open(wl_fig5.GOLDEN) as fh:
        golden = json.load(fh)["seeds"]["2015"]
    low = _golden_result(golden)
    low.datc.correlations_pct[:] = 50.0
    tally = common.Tally()
    wl_fig5.check(low, golden, tally)
    assert any("outside" in reason for reason in tally.reasons)


# ----------------------------------------------------------------------
# Self time and the layer table
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_child_coverage():
    # (id, parent, name, t0, t1, c0, c1)
    spans = [
        (1, 0, "outer", 0.0, 10.0, 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0, 1.0, 3.0),
        (3, 1, "b", 2.0, 5.0, 3.0, 5.0),  # overlaps a: union counted once
        (4, 1, "c", 8.0, 12.0, 5.0, 6.0),  # clipped to the parent
        (5, 2, "leaf", 1.5, 2.5, 1.0, 2.0),  # grandchild: not the outer's
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1][0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2][0] == pytest.approx(1.0)
    assert selfs[5][0] == pytest.approx(1.0)
    assert selfs[1][1] == pytest.approx(10.0 - (2.0 + 2.0 + 1.0))


def test_recorder_nests_spans_and_builds_the_table():
    rec = tracing.Recorder()

    def inner():
        time.sleep(0.02)

    inner_w = rec.wrap(inner, "inner")

    def outer():
        inner_w()
        inner_w()
        time.sleep(0.01)

    rec.wrap(outer, "outer")()
    table = tracing.layer_table([rec.dump()])
    rows = table["rows"]
    assert rows["inner"]["calls"] == 2 and rows["outer"]["calls"] == 1
    assert rows["outer"]["incl_ms"] >= rows["inner"]["incl_ms"] + 9.0
    assert rows["outer"]["self_ms"] == pytest.approx(
        rows["outer"]["incl_ms"] - rows["inner"]["incl_ms"], abs=1e-6
    )


# ----------------------------------------------------------------------
# Wrapped entry points must be called
# ----------------------------------------------------------------------
@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.encode = lambda x: x + 1
    mod.decode = lambda x: x - 1

    class Store:
        def put(self, value):
            return value

    mod.Store = Store
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_traced_run_fails_loudly_when_an_entry_point_is_never_called(fake_module):
    original = fake_module.decode
    rec = tracing.Recorder()
    rec.install([
        (fake_module.__name__, "encode", "layer.encode", None),
        (fake_module.__name__, "decode", "layer.decode", None),
        (fake_module.__name__, "Store.put", "layer.put", None),
    ])
    try:
        assert fake_module.encode(1) == 2  # the program's own lookup
        assert fake_module.Store().put(5) == 5
    finally:
        rec.uninstall()
    assert fake_module.decode is original
    table = tracing.layer_table([rec.dump()])
    tracing.require_called(table, ["layer.encode", "layer.put"])
    with pytest.raises(tracing.TraceError, match="layer.decode"):
        tracing.require_called(table, ["layer.encode", "layer.decode"])


def test_every_program_target_resolves():
    """The targets name attributes that exist in the program."""
    sys.path.insert(0, common.SRC)
    targets = (
        tracing.SWEEP_TARGETS + tracing.STORE_TARGETS + tracing.TRANSPORT_TARGETS
        + tracing.QUEUE_TARGETS + tracing.DISPATCHER_TARGETS
        + tracing.SERVE_TARGETS + tracing.CLIENT_TARGETS
    )
    rec = tracing.Recorder()
    try:
        rec.install(targets)
        tracing.install_worker_sleep(rec)
    finally:
        rec.uninstall()


# ----------------------------------------------------------------------
# Open-loop timing from the due time
# ----------------------------------------------------------------------
def test_a_stalled_server_shows_growing_latency_and_generator_lag(monkeypatch):
    """A server that blocks the loop for STALL seconds delays the waves
    due meanwhile: the generator sends them late (lag) and each chunk's
    latency, counted from its due time, carries that lag."""
    sys.path.insert(0, common.SRC)
    import wl_serve

    stall_s = 0.3
    periods = 8
    monkeypatch.setattr(common, "nproc", lambda: 1)
    signals = [np.zeros(periods * wl_serve.CHUNK)] * wl_serve.N_BASE
    tally = common.Tally()
    level = wl_serve.Level(
        0, wl_serve.SLOTS, periods, signals, None, tally, common.RssPeak()
    )
    frames = [0]

    async def handle(reader, writer):
        while line := await reader.readline():
            msg = json.loads(line)
            frames[0] += 1
            if frames[0] == 4 * wl_serve.SLOTS + 1:  # first pushm of period 2
                time.sleep(stall_s)  # the server stalls the whole loop
            if msg["op"] == "pushm":
                reply = {"ok": True, "results": [{"ok": True}] * len(msg["sids"])}
            else:
                reply = {"ok": True}
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        sids = {i: i for i in range(level.n)}
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                level._stream(0, reader, writer, sids, loop.time() + 0.02), 10.0
            )
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())
    lat = [ms for _, ms in level.latencies]
    assert len(lat) == len(level.lags) == periods * wl_serve.SLOTS
    assert tally.failed == 0
    stall_ms = stall_s * 1e3
    assert max(level.lags) > 0.5 * stall_ms  # the generator ran late
    assert max(lat) > 0.8 * stall_ms  # the stall shows in latency
    # Latency counts from the due time, so it includes the send lag.
    assert all(ms >= lag for ms, lag in zip(lat, level.lags))
    # Before the stall and once it has passed, latency is small again.
    assert max(lat[: 2 * wl_serve.SLOTS]) < 0.5 * stall_ms
    assert max(lat[-wl_serve.SLOTS :]) < 0.5 * stall_ms


def test_windowed_tail_takes_the_median_of_per_window_p99():
    rng = np.random.default_rng(0)
    samples = list(rng.uniform(0.0, 1.0, 3500))
    samples[1200:1250] = [100.0] * 50  # one burst inside the second window
    t = common.windowed_tail(samples, 99.0)
    assert t["windows"] == 3 and t["n"] == 3000
    per_window = [common.percentile(samples[i : i + 1000], 99.0) for i in (0, 1000, 2000)]
    assert per_window[1] == 100.0
    assert t["tail"] == sorted(per_window)[1] < 1.0
    short = common.windowed_tail(samples[:500], 99.0)
    assert short["windows"] == 0 and short["tail_pct"] < 99.0
