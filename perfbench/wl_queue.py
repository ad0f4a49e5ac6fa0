"""``queue-dispatch``: a dataset sweep through ``repro dispatch`` and workers.

Each repetition starts a ``repro dispatch`` process on a fresh jobs
database and store, then ``nproc`` ``repro worker --dispatcher``
processes, and waits until all are ready.  The generator submits one
link-bearing D-ATC sweep of short patterns in one-pattern shards
through ``RemoteBackend``, waits for the workers to drain the queue,
and collects the results with a warm ``dataset_sweep`` over a
``RemoteStore``.  Per-job overhead dominates: queue verbs, wake-up
after submit, the dispatcher wire and remote store puts.

Checks: every job is done on its first attempt (a requeue, quarantine
or fenced-off completion is a failure), and the collected sweep is
bit-identical to an in-process ``Experiment.dataset_sweep`` of the
same spec.  Workers exit on their own once the queue drained, so a
fleet lives for exactly one sweep.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time

import numpy as np

import common

N_PATTERNS = 32
DURATION_S = 2.0
SHARD_SIZE = 1
POLL_S = 0.005
COLLECTS = 5  # warm collects per sweep; the median is reported


def _spec():
    from repro.api import ExperimentSpec
    from repro.uwb import LinkConfig

    return ExperimentSpec.for_scheme("datc", link=LinkConfig())


def _dataset(seed: int):
    from repro.signals.dataset import DatasetSpec

    return DatasetSpec(n_patterns=N_PATTERNS, duration_s=DURATION_S, seed=2015 + seed)


class Rep:
    """One dispatcher + worker fleet running one sweep."""

    def __init__(self, tag, dataset, reference, tally, rss, spans_dir=None):
        self.tag = tag
        self.dataset = dataset
        self.reference = reference
        self.tally = tally
        self.rss = rss
        self.spans_dir = spans_dir
        self.procs = []
        self.job_ms: "list[float]" = []
        self.result = None

    def _spans(self, name: str) -> "str | None":
        if self.spans_dir is None:
            return None
        return os.path.join(self.spans_dir, f"spans-{name}.json")

    def start(self) -> "str":
        """Start the dispatcher, then the workers; returns the address."""
        work = common.WORK
        ready = os.path.join(work, f"dispatch-ready-{self.tag}")
        args = [
            "dispatch", "--db", os.path.join(work, f"queue-{self.tag}.db"),
            "--store", os.path.join(work, f"store-{self.tag}"),
            "--port", "0", "--ready-file", ready,
        ]
        t0 = time.perf_counter()
        dispatcher = common.spawn(
            common.repro_command(args, self._spans("dispatch")),
            os.path.join(work, f"dispatch-{self.tag}.log"),
            ready,
        )
        self.procs.append(dispatcher)
        (lines,) = common.wait_ready([(dispatcher, ready)], n_lines=2)
        self.dispatcher_ready_s = time.perf_counter() - t0
        host, port = lines[1].split()
        address = f"{host}:{port}"
        t0 = time.perf_counter()
        waits = []
        for i in range(common.nproc()):
            ready = os.path.join(work, f"worker-ready-{self.tag}-{i}")
            args = [
                "worker", "--dispatcher", address, "--max-idle", "120",
                "--ready-file", ready,
            ]
            proc = common.spawn(
                common.repro_command(args, self._spans(f"worker-{i}")),
                os.path.join(work, f"worker-{self.tag}-{i}.log"),
                ready,
            )
            self.procs.append(proc)
            waits.append((proc, ready))
        common.wait_ready(waits)
        self.worker_ready_s = time.perf_counter() - t0
        self.setup_s = self.dispatcher_ready_s + self.worker_ready_s
        self.rss.sample(self.procs)
        return address

    def sweep(self, address: str) -> None:
        """Submit, wait for the drain, collect warm; check everything.

        The collect runs once the drained workers have exited, so their
        shutdown does not share the CPU with it.
        """
        from repro.api import Experiment
        from repro.runtime import ExperimentQueue, RemoteBackend, RemoteStore

        spec = _spec()
        queue = ExperimentQueue(RemoteBackend(address))
        store = RemoteStore(address)
        try:
            t0 = time.perf_counter()
            n_jobs = queue.submit_dataset(spec, self.dataset, shard_size=SHARD_SIZE)
            polls = 0
            while queue.unfinished():
                time.sleep(POLL_S)
                polls += 1
                if polls % 20 == 0:
                    self.rss.sample(self.procs)
            self.drain_s = time.perf_counter() - t0
            self.rss.sample(self.procs)
            self.wait_workers()
            collects = []
            for _ in range(COLLECTS):
                t1 = time.perf_counter()
                self.result = Experiment(spec, store=store).dataset_sweep(self.dataset)
                collects.append(time.perf_counter() - t1)
            self.collect_s = statistics.median(collects)
            rows = queue.rows()
        finally:
            queue.close()
            store.close()
        self.sweep_s = self.drain_s + self.collect_s
        self.tally.check(len(rows) == n_jobs, f"{len(rows)} job rows for {n_jobs} jobs")
        for row in rows:
            ok = row["status"] == "done" and row["attempt"] == 1
            self.tally.check(ok, f"job {row['status']} after attempt {row['attempt']}")
            if row["status"] == "done":
                self.job_ms.append((row["updated_at"] - row["created_at"]) * 1e3)
        self.tally.check(
            store.stats()["misses"] == 0, "collect re-evaluated patterns (store misses)"
        )
        for name in ("correlations_pct", "n_events"):
            got = getattr(self.result, name)
            want = getattr(self.reference, name)
            same = got.shape == want.shape and np.equal(got, want)
            self.tally.check(bool(np.all(same)), f"collected {name} differ", n=N_PATTERNS)

    def wait_workers(self) -> None:
        """Wait for the drained workers to exit and check their outcomes."""
        workers = self.procs[1:]
        for proc in workers:
            proc.wait(timeout=60)
        self.rss.fleet(self.procs)
        for i, proc in enumerate(workers):
            path = os.path.join(common.WORK, f"worker-{self.tag}-{i}.log")
            with open(path) as fh:
                out = fh.read()
            self.tally.check(proc.returncode == 0, f"worker exit {proc.returncode}")
            match = re.search(r"requeued (\d+), quarantined (\d+), lost (\d+)", out)
            if match is None:
                self.tally.fail("worker printed no outcome line")
                continue
            for label, n in zip(("requeued", "quarantined", "fenced off"), match.groups()):
                if int(n):
                    self.tally.fail(f"jobs {label}", int(n))

    def run(self) -> None:
        try:
            address = self.start()
            self.sweep(address)
            code = common.stop(self.procs[0])
            self.tally.check(code == 0, f"dispatcher exit {code}")
        finally:
            common.kill_all(self.procs)


def _setup(seed: int):
    import_s, scipy_loaded = common.import_probe()
    t0 = time.perf_counter()
    dataset = _dataset(seed)
    input_s = time.perf_counter() - t0
    from repro.api import Experiment

    reference = Experiment(_spec()).dataset_sweep(dataset)
    return dataset, reference, import_s + input_s, import_s, scipy_loaded


def run(seed: int, seconds: float, tally: common.Tally, rss: common.RssPeak) -> dict:
    dataset, reference, base_setup_s, _, _ = _setup(seed)
    reps = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(reps) < 3:
        rep = Rep(str(len(reps)), dataset, reference, tally, rss)
        rep.run()
        reps.append(rep)
    jobs = [ms for rep in reps for ms in rep.job_ms]
    lat = common.tail(jobs, 90.0)
    common.note(
        f"queue-dispatch: {len(reps)} sweeps of {N_PATTERNS} x {DURATION_S:g} s "
        f"patterns in {SHARD_SIZE}-pattern jobs on {common.nproc()} workers; "
        f"job latency p50 {lat['p50']:.1f} ms, p{lat['tail_pct']:.1f} "
        f"{lat['tail']:.1f} ms (n={lat['n']}); warm collect "
        f"{statistics.median(N_PATTERNS / r.collect_s for r in reps):.0f} patterns/s"
    )
    return {
        "setup_s": base_setup_s + statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": rss.total_mb(),
        "patterns_per_s": statistics.median(N_PATTERNS / r.sweep_s for r in reps),
        "latency_p50_ms": lat["p50"],
    }


def run_traced(seed: int, tally: common.Tally) -> dict:
    import tracing

    dataset, reference, _, import_s, scipy_loaded = _setup(seed)
    rss = common.RssPeak()
    cpu0 = time.process_time() + common.cpu_seconds_children()
    plain = Rep("plain", dataset, reference, tally, rss)
    plain.run()
    plain_cpu = time.process_time() + common.cpu_seconds_children() - cpu0

    rec = tracing.Recorder()
    rec.install(tracing.TRANSPORT_TARGETS + tracing.SWEEP_TARGETS)
    cpu0 = time.process_time() + common.cpu_seconds_children()
    try:
        traced = Rep("traced", dataset, reference, tally, rss, spans_dir=common.WORK)
        traced.run()
    finally:
        rec.uninstall()
    traced_cpu = time.process_time() + common.cpu_seconds_children() - cpu0
    for name in ("correlations_pct", "n_events"):
        tally.check(
            np.array_equal(getattr(plain.result, name), getattr(traced.result, name)),
            "traced outputs differ from untraced",
        )
    dumps = [rec.dump()]
    for name in ["dispatch"] + [f"worker-{i}" for i in range(common.nproc())]:
        with open(os.path.join(common.WORK, f"spans-{name}.json")) as fh:
            dumps.append(json.load(fh))
    table = tracing.layer_table(dumps)
    tracing.require_called(
        table,
        [
            "import.repro", "signals.pattern", "signals.force", "signals.emg",
            "signals.envelope", "core.encode", "uwb.link", "rx.decode", "rx.score",
            "api.run", "api.dataset_sweep", "runtime.store.put", "runtime.store.get",
            "runtime.queue.claim", "runtime.queue.complete",
            "runtime.transport.rpc.submit", "runtime.transport.rpc.claim",
            "runtime.transport.rpc.complete", "runtime.transport.rpc.store_put",
            "runtime.dispatcher.backend",
        ],
    )
    return {
        "table": table,
        "overhead_s": traced_cpu - plain_cpu,
        "import.repro_s": import_s,
        "import.scipy_loaded": scipy_loaded,
        "runtime.dispatcher.ready_s": traced.dispatcher_ready_s,
        "runtime.worker.ready_s": traced.worker_ready_s,
    }
