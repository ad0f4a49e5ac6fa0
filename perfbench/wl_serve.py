"""``serve-fleet``: open-loop live traffic against a ``repro serve`` process.

Each session streams one pre-generated pattern in real time: one 100 ms
chunk (250 samples at 2500 Hz) per period.  Sessions are spread over
``nproc`` connections and over ``SLOTS`` phase slots per period; at
each slot's due time every connection sends one ``pushm`` wave with
the chunks of its sessions in that slot, followed by a ``drain`` of
that wave's probe session.  The generator sends on schedule whatever
the replies do (open loop), so a stalled server shows as growing
latency, and each chunk latency runs from the chunk's due time to the
``drain`` reply carrying its events.

A level is one fixed offered session count on a freshly started
server.  It is sustained when its p99 chunk latency is within one
chunk period and the backlog does not grow.  Finalized envelopes are
compared bit for bit with the scalar ``StreamingEncoder`` /
``StreamingDecoder`` path, built once per distinct base signal.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import statistics
import time

import numpy as np

import common

FS = 2500.0
CHUNK = 250
PERIOD_S = CHUNK / FS  # 100 ms
LIMIT_MS = PERIOD_S * 1e3  # p99 chunk latency limit: one chunk period
SLOTS = 20
N_BASE = 8
# 20 probes x 2 connections x 30 measured periods supports a p99.
MIN_PERIODS = 35
WARMUP_PERIODS = 5
# Offered session counts.  On a 2-vCPU host the reference level keeps
# p99 near a tenth of the limit and the top level is far past capacity,
# so the sustained verdict does not flip with host noise.
LEVELS = (64, 256, 4096)
REFERENCE = 256
PAPER_PATTERN_S = 20.0
ABORT_MS = 20 * LIMIT_MS  # an overloaded level is cut short past this
MAX_LINE = 16 * 1024 * 1024


def _spec():
    from repro.core.config import DATCConfig
    from repro.runtime.sessions import SessionSpec

    return SessionSpec(scheme="datc", fs=FS, config=DATCConfig())


def level_periods(seconds: float) -> "dict[int, int]":
    """Chunk periods per level: the reference level gets what the
    capacity levels leave of the run's seconds."""
    rest = int(seconds / PERIOD_S) - (len(LEVELS) - 1) * MIN_PERIODS
    return {n: max(MIN_PERIODS, rest) if n == REFERENCE else MIN_PERIODS for n in LEVELS}


def make_inputs(seed: int, periods: int):
    """One base signal per pattern, ``periods`` chunks long."""
    from repro.signals.dataset import DatasetSpec

    dataset = DatasetSpec(
        n_patterns=N_BASE, duration_s=periods * PERIOD_S, fs=FS, seed=2015 + seed
    )
    return [dataset.pattern(i).emg for i in range(N_BASE)]


def reference_envelope(signal: np.ndarray) -> np.ndarray:
    """The scalar streaming encode + decode of ``signal`` in CHUNK chunks."""
    from repro.core.encoders import DATCEncoder
    from repro.rx.decoders import StreamingDecoder

    spec = _spec()
    enc = DATCEncoder(FS, spec.config, rectify=spec.rectify)
    dec = StreamingDecoder(
        scheme="datc", config=spec.config, fs_out=spec.fs_out, window_s=spec.window_s
    )
    for start in range(0, signal.size, CHUNK):
        dec.push(enc.push(signal[start : start + CHUNK]))
    enc.finalize()
    dec.push(enc.drain())
    dec.finalize()
    return dec.envelope


class Plan:
    """Who streams what, on which connection, at which phase."""

    def __init__(self, seed: int, n_sessions: int, n_conns: int) -> None:
        rng = np.random.default_rng((seed, n_sessions))
        self.signal_of = rng.integers(0, N_BASE, size=n_sessions)
        # Phase offset of each slot within the period.
        self.offsets = (np.arange(SLOTS) + rng.uniform(0.0, 0.5, SLOTS)) * (
            PERIOD_S / SLOTS
        )
        self.conns = []  # per connection: {slot: [session index, ...]}
        for c in range(n_conns):
            owned = np.arange(c, n_sessions, n_conns)
            slots = rng.permutation(owned.size) % SLOTS
            self.conns.append(
                {s: [int(i) for i in owned[slots == s]] for s in range(SLOTS)}
            )


class Level:
    """One offered level against one server process."""

    def __init__(self, seed, n_sessions, periods, signals, refs, tally, rss, spans=None):
        self.n = n_sessions
        self.periods = periods
        self.signals = signals
        self.refs = refs
        self.tally = tally
        self.rss = rss
        self.spans = spans
        self.n_conns = min(common.nproc(), n_sessions)
        self.plan = Plan(seed, n_sessions, self.n_conns)
        self.latencies: "list[tuple[int, float]]" = []  # (period, ms)
        self.lags: "list[float]" = []
        self.bytes_sent = 0
        self.aborted = False
        self.ready_s = 0.0
        self.stats: dict = {}
        self.envelopes: "dict[int, np.ndarray]" = {}

    # -- server process -------------------------------------------------
    def start_server(self, tag: str):
        ready = os.path.join(common.WORK, f"serve-ready-{tag}")
        log = os.path.join(common.WORK, f"serve-{tag}.log")
        args = [
            "serve", "--port", "0", "--ready-file", ready,
            "--max-sessions", str(self.n),
            # Deep enough that no push is refused: overload shows as
            # latency, never as busy or shed replies.
            "--max-pending", str(self.periods + 1),
            "--max-total-pending", str(self.n * (self.periods + 1)),
        ]
        t0 = time.perf_counter()
        proc = common.spawn(common.repro_command(args, self.spans), log, ready)
        try:
            (lines,) = common.wait_ready([(proc, ready)], n_lines=2)
        except BaseException:
            common.kill_all([proc])
            raise
        self.ready_s = time.perf_counter() - t0
        host, port = lines[1].split()
        return proc, log, host, int(port)

    # -- one connection ---------------------------------------------------
    @staticmethod
    async def _reply(reader) -> dict:
        """The next reply, skipping unsolicited ``event`` notices."""
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            reply = json.loads(line)
            if "event" not in reply:
                return reply

    async def _rpc(self, reader, writer, msg: dict) -> dict:
        writer.write(json.dumps(msg, separators=(",", ":")).encode() + b"\n")
        await writer.drain()
        return await self._reply(reader)

    async def _stream(self, conn: int, reader, writer, sids, t0: float) -> None:
        from repro.runtime import server as wire

        loop = asyncio.get_running_loop()
        slots = self.plan.conns[conn]
        order = sorted(
            (self.plan.offsets[s] + k * PERIOD_S, s, k)
            for k in range(self.periods)
            for s in range(SLOTS)
            if slots[s]
        )
        expected: "collections.deque" = collections.deque()
        idle = asyncio.Event()  # set whenever every sent frame was answered

        async def read_replies() -> None:
            while True:
                reply = await self._reply(reader)
                kind, due, k, n = expected.popleft()
                if not expected:
                    idle.set()
                if kind == "pushm":
                    if reply.get("ok"):
                        for r in reply["results"]:
                            self.tally.check(bool(r.get("ok")), f"push {r.get('error')}")
                    else:
                        self.tally.fail(f"pushm {reply.get('error')}", n)
                    continue
                ms = (loop.time() - due) * 1e3
                self.tally.check(bool(reply.get("ok")), f"drain {reply.get('error')}")
                self.latencies.append((k, ms))
                if ms > ABORT_MS:
                    self.aborted = True
                    return

        reading = asyncio.ensure_future(read_replies())
        try:
            for rel, slot, k in order:
                if self.aborted or reading.done():
                    break
                due = t0 + rel
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.lags.append((loop.time() - due) * 1e3)
                members = slots[slot]
                data = np.concatenate(
                    [self.signals[self.plan.signal_of[i]][k * CHUNK : (k + 1) * CHUNK]
                     for i in members]
                )
                frame = {
                    "op": "pushm",
                    "sids": [sids[i] for i in members],
                    "lens": [CHUNK] * len(members),
                    "data": wire.pack_array(data),
                }
                probe = {"op": "drain", "sid": sids[members[0]]}
                payload = (
                    json.dumps(frame, separators=(",", ":")).encode() + b"\n"
                    + json.dumps(probe, separators=(",", ":")).encode() + b"\n"
                )
                idle.clear()
                expected.append(("pushm", due, k, len(members)))
                expected.append(("drain", due, k, 1))
                self.bytes_sent += len(payload)
                writer.write(payload)
                await writer.drain()
            if not self.aborted:
                waiting = asyncio.ensure_future(idle.wait())
                await asyncio.wait(
                    {reading, waiting}, return_when=asyncio.FIRST_COMPLETED
                )
                waiting.cancel()
                if reading.done():
                    reading.result()  # surface a reader failure
        finally:
            if not reading.done():
                reading.cancel()
                try:
                    await reading
                except asyncio.CancelledError:
                    pass

    async def _finalize(self, reader, writer, owned, sids) -> None:
        from repro.runtime import server as wire

        frames = b"".join(
            json.dumps({"op": "finalize", "sid": sids[i]}).encode() + b"\n"
            for i in owned
        )
        writer.write(frames)
        await writer.drain()
        for i in owned:
            reply = await self._reply(reader)
            if not self.tally.check(bool(reply.get("ok")), f"finalize {reply.get('error')}"):
                continue
            env = wire.unpack_floats(reply["envelope"])
            self.envelopes[i] = env
            self.tally.check(
                np.array_equal(env, self.refs[self.plan.signal_of[i], self.periods]),
                "served envelope differs from scalar streaming",
            )

    async def _drive(self, host: str, port: int) -> None:
        spec = _spec().to_dict()
        conns = [
            await asyncio.open_connection(host, port, limit=MAX_LINE)
            for _ in range(self.n_conns)
        ]
        try:
            owned = []
            sids = {}
            for c, (reader, writer) in enumerate(conns):
                mine = sorted(i for members in self.plan.conns[c].values() for i in members)
                reply = await self._rpc(
                    reader, writer, {"op": "create", "spec": spec, "n": len(mine)}
                )
                if not reply.get("ok"):
                    raise RuntimeError(f"create failed: {reply}")
                sids.update(zip(mine, reply["sids"]))
                owned.append(mine)
            loop = asyncio.get_running_loop()
            t0 = loop.time() + 0.05
            await asyncio.gather(
                *(self._stream(c, r, w, sids, t0) for c, (r, w) in enumerate(conns))
            )
            if self.aborted:
                return
            await asyncio.gather(
                *(self._finalize(r, w, owned[c], sids) for c, (r, w) in enumerate(conns))
            )
            reader, writer = conns[0]
            self.stats = (await self._rpc(reader, writer, {"op": "stats"}))["stats"]
            for reader, writer in conns:
                await self._rpc(reader, writer, {"op": "close"})
        finally:
            for _, writer in conns:
                writer.transport.abort()

    def run(self, tag: str) -> None:
        proc, log, host, port = self.start_server(tag)
        try:
            asyncio.run(self._drive(host, port))
            self.rss.fleet([proc])
            if not self.aborted:  # an aborted level's server is killed below
                code = common.stop(proc)
                with open(log) as fh:
                    out = fh.read()
                self.tally.check(
                    code == 0 and "unfinalized 0" in out, f"serve drain: exit {code}"
                )
        finally:
            common.kill_all([proc])

    # -- verdict ----------------------------------------------------------
    def measured(self) -> "list[float]":
        return [ms for k, ms in self.latencies if k >= WARMUP_PERIODS]

    def sustained(self) -> bool:
        if self.aborted:
            return False
        lat = self.measured()
        if common.tail(lat, 99.0)["tail"] > LIMIT_MS:
            return False
        per = sorted(self.latencies)
        quarter = max(len(per) // 4, 1)
        first = statistics.median(ms for _, ms in per[quarter : 2 * quarter])
        last = statistics.median(ms for _, ms in per[-quarter:])
        return last <= 2.0 * first + 10.0  # no growing backlog


def _setup(seed: int, periods: "dict[int, int]"):
    """Import probes, the base signals, and the scalar references for
    every (signal, level length) a level will check."""
    import_s, scipy_loaded = common.import_probe()
    t0 = time.perf_counter()
    signals = make_inputs(seed, max(periods.values()))
    input_s = time.perf_counter() - t0
    refs = {
        (i, p): reference_envelope(signal[: p * CHUNK])
        for i, signal in enumerate(signals)
        for p in set(periods.values())
    }
    return signals, refs, import_s + input_s, import_s, scipy_loaded


def run(seed: int, seconds: float, tally: common.Tally, rss: common.RssPeak) -> dict:
    periods = level_periods(seconds)
    signals, refs, base_setup_s, _, _ = _setup(seed, periods)
    results = {}
    for n in LEVELS:  # ascending
        level = Level(seed, n, periods[n], signals, refs, tally, rss)
        level.run(f"{n}")
        results[n] = level
        if n == REFERENCE:
            # Levels above the reference overload the host; what they
            # hold when cut short depends on timing, so peak memory is
            # taken through the reference level.
            peak_rss_mb = rss.total_mb()
        lat = level.measured()
        t = common.tail(lat, 99.0) if lat else {"p50": 0, "tail": 0, "tail_pct": 0, "n": 0}
        common.note(
            f"serve-fleet level {n}: p50 {t['p50']:.1f} ms, p{t['tail_pct']:.1f} "
            f"{t['tail']:.1f} ms (n={t['n']}), lag p99 "
            f"{common.percentile(level.lags, 99.0):.1f} ms, "
            f"{'sustained' if level.sustained() else 'NOT sustained'}"
            f"{' (aborted)' if level.aborted else ''}"
        )
    sustained = max((n for n, lv in results.items() if lv.sustained()), default=0)
    lat = common.windowed_tail(results[REFERENCE].measured(), 99.0)
    common.note(
        f"serve-fleet: sustained_sessions {sustained}, "
        f"reference level {REFERENCE}: chunk latency p50 {lat['p50']:.2f} ms, "
        f"p{lat['tail_pct']:.1f} {lat['tail']:.2f} ms (median of {lat['windows']} "
        f"windows, n={lat['n']})"
    )
    return {
        "setup_s": base_setup_s + statistics.median(lv.ready_s for lv in results.values()),
        "peak_rss_mb": peak_rss_mb,
        # Real-time capacity in paper-length patterns completed per second.
        "patterns_per_s": sustained / PAPER_PATTERN_S,
        "latency_p50_ms": lat["p50"],
    }


def run_traced(seed: int, tally: common.Tally) -> dict:
    import tracing

    periods = {REFERENCE: MIN_PERIODS}
    signals, refs, _, import_s, scipy_loaded = _setup(seed, periods)
    rss = common.RssPeak()
    cpu0 = time.process_time() + common.cpu_seconds_children()
    plain = Level(seed, REFERENCE, MIN_PERIODS, signals, refs, tally, rss)
    plain.run("plain")
    plain_cpu = time.process_time() + common.cpu_seconds_children() - cpu0

    spans = os.path.join(common.WORK, "spans-serve.json")
    rec = tracing.Recorder()
    rec.install(tracing.CLIENT_TARGETS)
    cpu0 = time.process_time() + common.cpu_seconds_children()
    try:
        traced = Level(seed, REFERENCE, MIN_PERIODS, signals, refs, tally, rss, spans=spans)
        traced.run("traced")
    finally:
        rec.uninstall()
    traced_cpu = time.process_time() + common.cpu_seconds_children() - cpu0
    tally.check(
        sorted(plain.envelopes) == sorted(traced.envelopes)
        and all(np.array_equal(plain.envelopes[i], traced.envelopes[i])
                for i in plain.envelopes),
        "traced outputs differ from untraced",
    )
    with open(spans) as fh:
        server_dump = json.load(fh)
    table = tracing.layer_table([rec.dump(), server_dump])
    tracing.require_called(
        table, ["runtime.client.pack", "runtime.sessions.push", "runtime.server.unpack"]
    )
    return {
        "table": table,
        "overhead_s": traced_cpu - plain_cpu,
        "import.repro_s": import_s,
        "import.scipy_loaded": scipy_loaded,
        "runtime.client.bytes_sent": traced.bytes_sent,
        "runtime.server.busy": traced.stats.get("n_busy", 0),
        "runtime.server.shed": traced.stats.get("n_shed", 0),
        "runtime.server.ready_s": traced.ready_s,
        "bench.generator_lag_p99_ms": common.percentile(traced.lags, 99.0),
    }
