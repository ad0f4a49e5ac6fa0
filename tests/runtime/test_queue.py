"""Tests for the fault-tolerant experiment queue (jobs table + workers).

Lifecycle tests drive the lease clock *logically* through the ``now``
parameter, so lease expiry and backoff are exact — no sleeps, no races.
Worker-loop tests run real (in-process) workers against tiny datasets.

The ``queue`` fixture is parametrized over both backends — ``sqlite``
(the classic shared-mount jobs table) and ``remote`` (the same verbs
spoken to an in-process dispatcher over a real loopback socket) — so
every lifecycle/fencing/backoff/quarantine assertion in this file is
the conformance suite for the :class:`QueueBackend` contract.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import (
    Experiment,
    ExperimentSpec,
    dataset_fingerprint,
    dataset_point_fingerprint,
)
from repro.runtime.dispatcher import DispatcherThread
from repro.runtime.executors import RemoteTraceback
from repro.runtime.faults import FaultPlan, FaultSpec
import repro.runtime.queue as queue_mod
from repro.runtime.queue import (
    DEFAULT_MAX_ATTEMPTS,
    ExperimentQueue,
    Job,
    execute_job,
    run_worker,
)
from repro.runtime.store import ResultStore
from repro.runtime.transport import RemoteBackend
from repro.signals.dataset import DatasetSpec


@pytest.fixture(params=["sqlite", "remote"])
def queue(request, tmp_path):
    if request.param == "sqlite":
        with ExperimentQueue(tmp_path / "q.db") as q:
            yield q
        return
    with DispatcherThread(
        str(tmp_path / "q.db"), str(tmp_path / "dispatch-store")
    ) as dispatcher:
        with ExperimentQueue(RemoteBackend(dispatcher.address)) as q:
            yield q


def submit_n(queue, n, max_attempts=DEFAULT_MAX_ATTEMPTS, now=0.0):
    for i in range(n):
        assert queue.submit(
            "spec", f"fp{i}", {"s": 1}, {"kind": "x", "i": i},
            max_attempts=max_attempts, now=now,
        )


class TestSubmission:
    def test_submit_is_idempotent(self, queue):
        assert queue.submit("spec", "fp", {}, {}, now=0.0)
        assert not queue.submit("spec", "fp", {}, {}, now=1.0)
        assert queue.total() == 1

    def test_submit_rejects_bad_max_attempts(self, queue):
        with pytest.raises(ValueError, match="max_attempts"):
            queue.submit("spec", "fp", {}, {}, max_attempts=0)

    def test_submit_dataset_shards_and_idempotency(self, queue):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=8, duration_s=2.0, seed=2015)
        n = queue.submit_dataset(spec, dataset, workers_hint=2, now=0.0)
        assert n == queue.total() > 1
        ids = set()
        for row in queue.rows():
            import json

            payload = json.loads(row["payload"])
            assert payload["kind"] == "dataset_shard"
            assert payload["dataset"]["n_patterns"] == 8
            ids.update(payload["ids"])
        assert ids == set(range(8))
        # Resubmitting the same sweep adds nothing.
        assert queue.submit_dataset(spec, dataset, workers_hint=2) == 0

    def test_submit_dataset_respects_limit(self, queue):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=8, duration_s=2.0, seed=2015)
        queue.submit_dataset(spec, dataset, limit=3, shard_size=1)
        assert queue.total() == 3

    def test_submit_dataset_rejects_explicit_subjects(self, queue):
        import dataclasses

        spec = ExperimentSpec.for_scheme("datc")
        base = DatasetSpec(n_patterns=4, duration_s=2.0, seed=2015)
        rotated = base.subjects[1:] + base.subjects[:1]
        dataset = dataclasses.replace(base, subjects=rotated)
        assert dataset != base
        with pytest.raises(ValueError, match="generating fields"):
            queue.submit_dataset(spec, dataset)

    def test_submit_dataset_requires_spec(self, queue):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            queue.submit_dataset(
                {"not": "a spec"},
                DatasetSpec(n_patterns=2, duration_s=2.0, seed=1),
            )


class TestLeaseLifecycle:
    def test_claim_leases_oldest_and_counts_attempt(self, queue):
        submit_n(queue, 2)
        job = queue.claim("w1", lease_s=10.0, now=1.0)
        assert job.fingerprint == "fp0"
        assert job.attempt == 1
        assert queue.counts() == {
            "open": 1, "leased": 1, "done": 0, "error": 0,
        }

    def test_claim_empty_returns_none(self, queue):
        assert queue.claim("w1", now=0.0) is None

    def test_claim_rejects_bad_lease(self, queue):
        with pytest.raises(ValueError, match="lease_s"):
            queue.claim("w1", lease_s=0.0)

    def test_complete_marks_done(self, queue):
        submit_n(queue, 1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.complete(job, now=1.0)
        assert queue.counts()["done"] == 1
        assert queue.unfinished() == 0

    def test_heartbeat_extends_the_lease(self, queue):
        submit_n(queue, 1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.heartbeat(job, now=8.0)
        # Without the heartbeat the lease would have expired at t=10.
        assert queue.reap(now=15.0) == 0
        assert queue.reap(now=18.1) == 1

    def test_expired_lease_reopens_with_message(self, queue):
        submit_n(queue, 1)
        queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.reap(now=10.0) == 1  # heartbeat + lease_s <= now
        row = queue.rows("open")[0]
        assert "lease expired" in row["error"]
        assert row["worker_id"] is None
        assert row["not_before"] > 10.0  # backoff applies to retries

    def test_expired_lease_with_exhausted_attempts_quarantines(self, queue):
        submit_n(queue, 1, max_attempts=1)
        queue.claim("w1", lease_s=10.0, now=0.0)
        queue.reap(now=20.0)
        row = queue.errors()[0]
        assert "quarantined" in row["error"]

    def test_claim_reaps_expired_peers(self, queue):
        submit_n(queue, 1)
        stale = queue.claim("w1", lease_s=10.0, now=0.0)
        # w2's claim at t=50 reaps w1's expired lease; the re-opened row
        # carries a backoff window, after which w2 can pick it up.
        assert queue.claim("w2", lease_s=10.0, now=50.0) is None
        not_before = queue.rows("open")[0]["not_before"]
        job = queue.claim("w2", lease_s=10.0, now=not_before)
        assert job is not None
        assert job.attempt == 2
        # ... and every transition of the stale holder is fenced off.
        late = not_before + 1.0
        assert not queue.heartbeat(stale, now=late)
        assert not queue.complete(stale, now=late)
        assert queue.fail(stale, "late", now=late) is None
        assert not queue.release(stale, now=late)

    def test_fenced_complete_does_not_clobber_peer(self, queue):
        submit_n(queue, 1)
        stale = queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.reap(now=50.0) == 1
        not_before = queue.rows("open")[0]["not_before"]
        fresh = queue.claim("w2", lease_s=10.0, now=not_before)
        assert not queue.complete(stale, now=not_before + 1.0)
        assert queue.counts()["leased"] == 1  # w2 still owns the row
        assert queue.complete(fresh, now=not_before + 2.0)


class TestClaimWait:
    """``claim(wait_s=...)``: the wait ends on a job, a drain or time."""

    def test_parked_claim_returns_none_when_wait_s_ends(self, queue):
        submit_n(queue, 1)
        held = queue.claim("holder", lease_s=60.0)  # not drained, no job
        t0 = time.monotonic()
        assert queue.claim("w1", wait_s=0.3) is None
        waited = time.monotonic() - t0
        assert 0.29 <= waited < 2.0
        assert queue.complete(held)

    def test_parked_claim_wakes_on_submit(self, queue):
        # A waiting claim occupies its connection; the job arrives
        # through another one, as it does when a sweep is submitted.
        def submit_from_peer():
            with queue.backend.spawn() as peer:
                submit_n(peer, 1)

        timer = threading.Timer(0.2, submit_from_peer)
        t0 = time.monotonic()
        timer.start()
        try:
            job = queue.claim("w1", wait_s=10.0)
        finally:
            timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert job is not None and job.fingerprint == "fp0"
        assert time.monotonic() - t0 < 2.0

    def test_negative_wait_s_rejected(self, queue):
        with pytest.raises(ValueError, match="wait_s"):
            queue.claim("w1", wait_s=-0.1)

    def test_remote_wait_s_must_stay_below_the_channel_timeout(self, tmp_path):
        with DispatcherThread(":memory:", str(tmp_path / "store")) as d:
            with RemoteBackend(d.address, timeout_s=2.0) as backend:
                for wait_s in (2.0, 5.0):
                    with pytest.raises(ValueError, match="timeout_s"):
                        backend.claim("w1", wait_s=wait_s)
                assert backend.claim("w1", wait_s=0.05) is None


class TestRetriesAndQuarantine:
    def test_fail_reopens_with_backoff_until_exhausted(self, queue):
        submit_n(queue, 1, max_attempts=3)
        last_not_before = 0.0
        for attempt in (1, 2):
            now = last_not_before + 1.0
            job = queue.claim("w1", lease_s=10.0, now=now)
            assert job.attempt == attempt
            assert queue.fail(job, "boom", tb="tb text", now=now) == "open"
            row = queue.rows("open")[0]
            assert row["error"] == "boom"
            assert row["traceback"] == "tb text"
            assert row["not_before"] > now
            last_not_before = row["not_before"]
        job = queue.claim("w1", lease_s=10.0, now=last_not_before + 1.0)
        assert job.attempt == 3
        assert queue.fail(job, "boom", tb="tb text") == "error"
        assert queue.counts()["error"] == 1

    def test_backoff_is_deterministic_and_capped(self, queue):
        delays = [queue._backoff_s("spec", "fp", a) for a in (1, 2, 3, 50)]
        assert delays == [
            queue._backoff_s("spec", "fp", a) for a in (1, 2, 3, 50)
        ]
        assert delays[0] < delays[1] < delays[2]  # exponential growth
        cap = queue.backoff_cap_s * (1.0 + queue.backoff_jitter)
        assert delays[3] <= cap  # capped, jitter included

    def test_backoff_respected_by_claim(self, queue):
        submit_n(queue, 1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        queue.fail(job, "boom", now=0.0)
        not_before = queue.rows("open")[0]["not_before"]
        assert queue.claim("w1", now=not_before - 0.01) is None
        assert queue.claim("w1", now=not_before) is not None

    def test_non_retryable_failure_quarantines_immediately(self, queue):
        submit_n(queue, 1, max_attempts=5)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.fail(job, "bad spec", retryable=False) == "error"

    def test_complete_keeps_the_audit_trail(self, queue):
        submit_n(queue, 1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        queue.fail(job, "first try failed", tb="tb", now=0.0)
        job = queue.claim("w1", lease_s=10.0, now=100.0)
        assert queue.complete(job, now=101.0)
        row = queue.rows("done")[0]
        assert row["error"] == "first try failed"  # logged failure survives

    def test_reset_reopens_quarantined_rows(self, queue):
        submit_n(queue, 2, max_attempts=1)
        for _ in range(2):
            job = queue.claim("w1", lease_s=10.0, now=0.0)
            queue.fail(job, "boom")
        assert queue.counts()["error"] == 2
        assert queue.reset() == 2
        assert queue.counts()["open"] == 2
        assert all(r["attempt"] == 0 for r in queue.rows("open"))

    def test_release_returns_the_attempt(self, queue):
        submit_n(queue, 1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        assert queue.release(job, now=1.0)
        fresh = queue.claim("w2", lease_s=10.0, now=2.0)
        assert fresh.attempt == 1  # the released claim was uncounted

    def test_raise_first_error_chains_remote_traceback(self, queue):
        submit_n(queue, 1, max_attempts=1)
        job = queue.claim("w1", lease_s=10.0, now=0.0)
        queue.fail(job, "ValueError: boom", tb="Traceback ...\nValueError: boom")
        with pytest.raises(RuntimeError, match="quarantined") as excinfo:
            queue.raise_first_error()
        assert isinstance(excinfo.value.__cause__, RemoteTraceback)
        assert "ValueError: boom" in str(excinfo.value.__cause__)

    def test_raise_first_error_noop_when_clean(self, queue):
        queue.raise_first_error()  # nothing quarantined, nothing raised


class TestIntrospection:
    def test_counts_zero_filled(self, queue):
        assert queue.counts() == {
            "open": 0, "leased": 0, "done": 0, "error": 0,
        }

    def test_rows_rejects_unknown_status(self, queue):
        with pytest.raises(ValueError, match="status"):
            queue.rows("bogus")

    def test_repr_mentions_counts(self, queue):
        submit_n(queue, 1)
        assert "open=1" in repr(queue)

    def test_thread_safe_counters(self, queue):
        submit_n(queue, 32)

        def hammer():
            while True:
                job = queue.claim("w", lease_s=60.0)
                if job is None:
                    return
                queue.complete(job)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert queue.counts()["done"] == 32


class TestExecuteJob:
    def test_rejects_unknown_kind(self, tmp_path):
        job = Job(
            spec_key="k", fingerprint="f", spec={}, payload={"kind": "?"},
            attempt=1, max_attempts=3, lease_s=10.0, worker_id="w",
        )
        with pytest.raises(ValueError, match="job kind"):
            execute_job(job, ResultStore(tmp_path / "store"))

    def test_dataset_shard_matches_dataset_sweep_addresses(self, tmp_path):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=3, duration_s=2.0, seed=2015)
        store = ResultStore(tmp_path / "store")
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, shard_size=3)
            job = queue.claim("w1", lease_s=60.0)
            assert execute_job(job, store) == 3
            # Re-running the shard (a reclaimed lease) evaluates nothing.
            assert execute_job(job, store) == 0
        base = dataset_fingerprint(dataset)
        serial = Experiment(spec).dataset_sweep(dataset)
        for i in range(3):
            entry = store.get(spec.key(), dataset_point_fingerprint(base, i))
            assert entry is not None
            assert entry["correlation_pct"] == serial.correlations_pct[i]
            assert entry["n_events"] == serial.n_events[i]


    def test_a_sweeps_jobs_hash_the_dataset_once(self, tmp_path, monkeypatch):
        import repro.api as api_mod
        import repro.runtime.queue as queue_mod

        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=32, duration_s=1.0, seed=2015)
        store = ResultStore(tmp_path / "store")
        hashed = []

        def counting_fingerprint(value):
            hashed.append(value)
            return dataset_fingerprint(value)

        with ExperimentQueue(tmp_path / "q.db") as queue:
            assert queue.submit_dataset(spec, dataset, shard_size=1) == 32
            queue_mod._sweep_context.cache_clear()
            monkeypatch.setattr(
                api_mod, "dataset_fingerprint", counting_fingerprint
            )
            evaluated = 0
            while (job := queue.claim("w1", lease_s=60.0)) is not None:
                evaluated += execute_job(job, store)
                assert queue.complete(job)
        monkeypatch.undo()
        assert evaluated == 32
        assert len(hashed) == 1
        reference = ResultStore(tmp_path / "reference")
        serial = Experiment(spec, store=reference).dataset_sweep(dataset)
        assert [p.name for p in store._entry_paths()] == [
            p.name for p in reference._entry_paths()
        ]
        warm = Experiment(spec, store=store).dataset_sweep(dataset)
        assert np.array_equal(warm.correlations_pct, serial.correlations_pct)
        assert np.array_equal(warm.n_events, serial.n_events)


class TestRunWorker:
    def run_and_collect(self, tmp_path, spec, dataset, **kwargs):
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            lease_s=10.0, poll_s=0.02, **kwargs,
        )
        store = ResultStore(tmp_path / "store")
        result = Experiment(spec, store=store).dataset_sweep(dataset)
        return stats, result, store

    def test_drains_queue_bit_identically(self, tmp_path):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=4, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, workers_hint=2)
        stats, result, store = self.run_and_collect(tmp_path, spec, dataset)
        assert stats.completed == stats.claimed > 0
        assert stats.evaluated == 4
        assert store.stats()["hits"] == 4  # warm collection: zero re-evals
        serial = Experiment(spec).dataset_sweep(dataset)
        assert np.array_equal(result.correlations_pct, serial.correlations_pct)
        assert np.array_equal(result.n_events, serial.n_events)

    def test_empty_queue_exits_immediately(self, tmp_path):
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store", max_idle_s=0.0
        )
        assert stats.claimed == 0

    @staticmethod
    def spy_on_claim_waits(monkeypatch, on_wait):
        """Route ``ExperimentQueue.claim`` through a spy.

        Each waiting claim (``wait_s > 0``, one idle step) is reported
        to ``on_wait(wait_s)`` — which advances the test's fake clock —
        and then runs without the wait, so the test takes no wall time.
        """
        real_claim = ExperimentQueue.claim

        def spy(self, worker_id, lease_s=30.0, now=None, wait_s=0.0):
            if wait_s:
                on_wait(wait_s)
            return real_claim(self, worker_id, lease_s=lease_s, now=now)

        monkeypatch.setattr(ExperimentQueue, "claim", spy)

    def test_idle_polls_back_off_exponentially_to_a_cap(
        self, tmp_path, monkeypatch
    ):
        # An idle worker must probe at a decaying rate, not a fixed
        # 1/poll_s hammer: the waits its claims are given double from
        # poll_s up to idle_cap_s (plus bounded deterministic jitter),
        # recorded here by a claim spy driving an injectable clock.
        runs = [[]]  # the idle waits of each run_worker call
        t = [0.0]

        def fake_wait(s):
            runs[-1].append(s)
            t[0] += s

        self.spy_on_claim_waits(monkeypatch, fake_wait)
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            worker_id="idler", poll_s=0.1, idle_cap_s=2.0,
            max_idle_s=30.0, clock=lambda: t[0],
        )
        assert stats.claimed == 0
        delays = runs[0]
        assert len(delays) >= 6
        bare = [min(2.0, 0.1 * 2.0**k) for k in range(len(delays))]
        for delay, base in zip(delays, bare):
            assert base <= delay <= base * 1.25  # jitter in [0, 25%)
        # Strictly increasing until the cap region, then flat-ish.
        assert delays[0] < delays[1] < delays[2] < delays[3]
        assert max(delays) <= 2.0 * 1.25
        # Deterministic: the same worker re-run sees the same schedule.
        runs.append([])
        t[0] = 0.0
        run_worker(
            tmp_path / "q.db", tmp_path / "store",
            worker_id="idler", poll_s=0.1, idle_cap_s=2.0,
            max_idle_s=30.0, clock=lambda: t[0],
        )
        assert runs[1] == delays

    def test_idle_backoff_resets_after_a_successful_claim(
        self, tmp_path, monkeypatch
    ):
        # Submit nothing at first; during the third idle wait a job
        # appears.  Its first attempt hits an injected transient error
        # (requeued with a retry not_before in the future), so the very
        # next poll is empty again — and having just claimed, it must
        # restart the backoff ladder at poll_s, not continue from the
        # pre-claim rung.
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=1, duration_s=2.0, seed=2015)
        delays = []
        t = [0.0]

        def fake_wait(s):
            delays.append(s)
            t[0] += s
            if len(delays) == 3:
                with ExperimentQueue(tmp_path / "q.db") as queue:
                    queue.submit_dataset(spec, dataset)

        self.spy_on_claim_waits(monkeypatch, fake_wait)
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            worker_id="idler", poll_s=0.1, idle_cap_s=2.0,
            max_idle_s=1000.0, clock=lambda: t[0],
            faults=FaultPlan(
                faults=(FaultSpec(kind="error", match="", attempts=(1,)),)
            ),
        )
        assert stats.requeued == 1
        assert stats.completed == 1  # attempt 2 drains the queue
        # Ladder climbed for 3 rungs pre-claim; the claim reset it, so
        # the first post-claim idle wait is back at the base rung.
        assert delays[1] > delays[0]
        assert delays[2] > delays[1]
        assert delays[3] <= 0.1 * 1.25

    def test_transient_fault_retries_to_success(self, tmp_path):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=2, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, shard_size=1)
        faults = FaultPlan(faults=(FaultSpec(kind="error", attempts=(1,)),))
        stats, result, _ = self.run_and_collect(
            tmp_path, spec, dataset, faults=faults
        )
        assert stats.requeued == 2  # every shard failed once...
        assert stats.completed == 2  # ...and succeeded on retry
        assert stats.quarantined == 0
        with ExperimentQueue(tmp_path / "q.db") as queue:
            assert queue.counts()["done"] == 2
            # The eventually-done rows keep their first failure logged.
            assert all(
                "InjectedFault" in row["error"]
                for row in queue.rows("done")
            )
        serial = Experiment(spec).dataset_sweep(dataset)
        assert np.array_equal(result.correlations_pct, serial.correlations_pct)

    def test_deterministic_fault_quarantines_with_traceback(self, tmp_path):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=1, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, max_attempts=2)
        faults = FaultPlan(faults=(FaultSpec(kind="error"),))  # every attempt
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            lease_s=10.0, poll_s=0.02, faults=faults,
        )
        assert stats.quarantined == 1
        assert stats.requeued == 1  # max_attempts=2: one retry, then give up
        with ExperimentQueue(tmp_path / "q.db") as queue:
            row = queue.errors()[0]
            assert row["attempt"] == 2
            assert "InjectedFault" in row["error"]
            assert "InjectedFault" in row["traceback"]  # full worker tb
            with pytest.raises(RuntimeError) as excinfo:
                queue.raise_first_error()
            assert isinstance(excinfo.value.__cause__, RemoteTraceback)

    def test_should_stop_drains_gracefully(self, tmp_path):
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=4, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, shard_size=1)
        done = []

        def stop_after_first():
            return len(done) >= 1

        real_execute = execute_job

        def counting_execute(job, store):
            out = real_execute(job, store)
            done.append(job)
            return out

        import repro.runtime.queue as queue_mod

        original = queue_mod.execute_job
        queue_mod.execute_job = counting_execute
        try:
            stats = run_worker(
                tmp_path / "q.db", tmp_path / "store",
                lease_s=10.0, poll_s=0.02, prefetch=2,
                should_stop=stop_after_first,
            )
        finally:
            queue_mod.execute_job = original
        # Finished the in-flight shard, handed back the prefetched one.
        assert stats.completed == 1
        assert stats.released >= 1
        with ExperimentQueue(tmp_path / "q.db") as queue:
            counts = queue.counts()
            assert counts["leased"] == 0  # nothing left dangling
            assert counts["done"] == 1

    def test_stalled_worker_is_fenced_by_a_peer(self, tmp_path):
        """The stall injector: lease expires mid-job, a peer re-runs the
        shard, and the stalled worker's late completion is rejected."""
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=1, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset)
        faults = FaultPlan(
            faults=(FaultSpec(kind="stall", attempts=(1,), stall_s=1.2),)
        )
        results = {}

        def stalled():
            # max_jobs=1: after the fenced attempt the stalled worker
            # exits instead of racing the peer for the reopened row
            # (idle backoff makes the peer's re-claim cadence variable).
            results["stalled"] = run_worker(
                tmp_path / "q.db", tmp_path / "store",
                worker_id="stalled", lease_s=0.3, poll_s=0.02,
                heartbeat_s=0.05, faults=faults, max_jobs=1,
            )

        thread = threading.Thread(target=stalled)
        thread.start()
        # The peer waits out the stalled worker's lease, reclaims, runs.
        peer = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            worker_id="peer", lease_s=0.3, poll_s=0.05, max_idle_s=10.0,
        )
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert peer.completed == 1
        # The stalled worker's outcome was fenced off (attempt 1 ended as
        # a loss, or it lost the race entirely and never completed).
        assert results["stalled"].lost >= 1 or results["stalled"].completed == 0
        with ExperimentQueue(tmp_path / "q.db") as queue:
            assert queue.counts()["done"] == 1
        store = ResultStore(tmp_path / "store")
        result = Experiment(spec, store=store).dataset_sweep(dataset)
        serial = Experiment(spec).dataset_sweep(dataset)
        assert np.array_equal(result.correlations_pct, serial.correlations_pct)


@pytest.fixture(params=["sqlite", "remote"])
def worker_target(request, tmp_path):
    """``(run_worker kwargs, queue factory)`` for one backend."""
    db, store = tmp_path / "q.db", tmp_path / "store"
    if request.param == "sqlite":
        yield {"queue_path": db, "store_root": store}, lambda: ExperimentQueue(db)
        return
    with DispatcherThread(str(db), str(store)) as d:
        host, port = d.address
        yield (
            {"dispatcher": f"{host}:{port}"},
            lambda: ExperimentQueue(RemoteBackend(d.address)),
        )


class TestWakeOnSubmit:
    """An idle worker's claim waits for work instead of sleeping: a 5 s
    idle step ends as soon as a job arrives or the queue drains."""

    WAKE_S = 0.5

    @staticmethod
    def start_idle_worker(kwargs):
        out = {}

        def run():
            out["stats"] = run_worker(
                **kwargs, worker_id="idler", lease_s=10.0,
                poll_s=5.0, idle_cap_s=5.0, max_idle_s=None,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.3)  # past the first empty claim: parked on a 5 s step
        return thread, out

    def test_idle_worker_claims_within_half_a_second_of_submit(
        self, worker_target
    ):
        kwargs, open_queue = worker_target
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=1, duration_s=2.0, seed=2015)
        thread, out = self.start_idle_worker(kwargs)
        with open_queue() as queue:
            t0 = time.monotonic()
            queue.submit_dataset(spec, dataset)
            while queue.counts()["open"] and time.monotonic() - t0 < 10.0:
                time.sleep(0.005)
            claimed_s = time.monotonic() - t0
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert claimed_s < self.WAKE_S
        assert out["stats"].completed == 1

    def test_parked_worker_exits_within_half_a_second_of_the_drain(
        self, worker_target
    ):
        kwargs, open_queue = worker_target
        with open_queue() as queue:
            submit_n(queue, 1)
            peer_job = queue.claim("peer", lease_s=60.0)
            thread, out = self.start_idle_worker(kwargs)
            assert thread.is_alive()  # the peer's lease keeps it waiting
            t0 = time.monotonic()
            assert queue.complete(peer_job)
            thread.join(timeout=10.0)
            exit_s = time.monotonic() - t0
        assert not thread.is_alive()
        assert exit_s < self.WAKE_S
        assert out["stats"].claimed == 0


class RecordingBeats:
    """A fake heartbeat backend: logs each beat's start and end."""

    def __init__(self, delay_s=0.0, applied=True):
        self.delay_s = delay_s
        self.applied = applied
        self.log = []
        self.threads = set()
        self.closed = False
        self.beating = threading.Event()
        self._lock = threading.Lock()

    def record(self, *event):
        with self._lock:
            self.log.append(event)

    def heartbeat(self, job, now=None):
        self.threads.add(threading.get_ident())
        self.record("begin", job.fingerprint)
        self.beating.set()
        time.sleep(self.delay_s)
        self.record("end", job.fingerprint)
        return self.applied

    def close(self):
        self.closed = True

    def after_stop(self, fingerprint):
        """Log events for ``fingerprint`` that follow its first stop."""
        stopped = self.log.index(("stopped", fingerprint))
        return [e for e in self.log[stopped:] if e[1] == fingerprint][1:]


def _job(fingerprint):
    return Job(
        spec_key="k", fingerprint=fingerprint, spec={}, payload={},
        attempt=1, max_attempts=3, lease_s=10.0, worker_id="w",
    )


class TestSingleHeartbeatThread:
    def test_stop_waits_out_an_in_flight_beat(self):
        beats = RecordingBeats(delay_s=0.05)
        heartbeat = queue_mod._Heartbeat(beats, 0.001)
        try:
            for fingerprint in ("a", "b"):
                beats.beating.clear()
                heartbeat.start(_job(fingerprint))
                assert beats.beating.wait(5.0)
                heartbeat.stop()  # a beat is in flight for ~50 ms
                beats.record("stopped", fingerprint)
                time.sleep(0.02)
                assert beats.after_stop(fingerprint) == []
                assert beats.log[-2] == ("end", fingerprint)
        finally:
            heartbeat.close()
        assert len(beats.threads) == 1
        assert beats.closed

    def test_a_lost_lease_sets_lost_and_stops_beating(self):
        beats = RecordingBeats(applied=False)
        heartbeat = queue_mod._Heartbeat(beats, 0.005)
        try:
            heartbeat.start(_job("a"))
            deadline = time.monotonic() + 5.0
            while not heartbeat.lost:
                assert time.monotonic() < deadline, "lease loss never seen"
                time.sleep(0.005)
            time.sleep(0.05)
            assert beats.log == [("begin", "a"), ("end", "a")]
            beats.applied = True
            heartbeat.start(_job("b"))  # the next job beats afresh
            assert not heartbeat.lost
            assert beats.beating.wait(5.0)
        finally:
            heartbeat.close()

    def test_a_worker_runs_every_job_on_one_heartbeat_thread(
        self, tmp_path, monkeypatch
    ):
        beats = RecordingBeats(delay_s=0.002)
        created = []
        real_heartbeat = queue_mod._Heartbeat

        class CountingHeartbeat(real_heartbeat):
            def __init__(self, *args):
                created.append(self)
                super().__init__(*args)

            def stop(self):
                job = self._job
                super().stop()
                if job is not None:
                    beats.record("stopped", job.fingerprint)

        def slow_execute(job, store):
            time.sleep(0.03)  # long enough for several beats
            return 0

        monkeypatch.setattr(queue_mod, "_Heartbeat", CountingHeartbeat)
        monkeypatch.setattr(queue_mod, "execute_job", slow_execute)
        monkeypatch.setattr(
            queue_mod.SqliteBackend, "spawn", lambda self: beats
        )
        n = 6
        with ExperimentQueue(tmp_path / "q.db") as queue:
            submit_n(queue, n, now=None)
        stats = run_worker(
            tmp_path / "q.db", tmp_path / "store",
            lease_s=60.0, heartbeat_s=0.003,
        )
        assert stats.completed == n
        assert len(created) == 1
        assert len(beats.threads) == 1
        assert beats.closed
        for i in range(n):
            assert ("begin", f"fp{i}") in beats.log
            assert beats.after_stop(f"fp{i}") == []
