"""Tests for the content-addressed on-disk result store."""

import numpy as np
import pytest

from repro.runtime.store import ResultStore, fingerprint_arrays, fingerprint_value


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


class TestFingerprints:
    def test_array_fingerprint_is_content_based(self):
        a = np.arange(10.0)
        assert fingerprint_arrays(a) == fingerprint_arrays(a.copy())
        assert fingerprint_arrays(a) != fingerprint_arrays(a + 1)

    def test_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.float64)
        assert fingerprint_arrays(a) != fingerprint_arrays(a.astype(np.float32))
        assert fingerprint_arrays(a) != fingerprint_arrays(a.reshape(2, 2))

    def test_value_fingerprint_handles_dataclasses(self):
        from repro.signals.dataset import DatasetSpec

        a = DatasetSpec(n_patterns=4, duration_s=3.0, seed=1)
        b = DatasetSpec(n_patterns=4, duration_s=3.0, seed=1)
        c = DatasetSpec(n_patterns=4, duration_s=3.0, seed=2)
        assert fingerprint_value(a) == fingerprint_value(b)
        assert fingerprint_value(a) != fingerprint_value(c)

    def test_value_fingerprint_key_order_invariant(self):
        assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value(
            {"b": 2, "a": 1}
        )

    def test_unfingerprintable_value_rejected(self):
        with pytest.raises(TypeError):
            fingerprint_value({"fn": len})


class TestResultStore:
    def test_miss_then_hit_round_trip(self, store):
        arrays = {"corr": np.float64(96.5), "events": np.int64(3724)}
        assert store.get("spec", "data") is None
        store.put("spec", "data", arrays)
        got = store.get("spec", "data")
        assert got is not None
        # Bit-identical round trip: float64/int64 survive npz exactly.
        assert float(got["corr"]) == 96.5
        assert int(got["events"]) == 3724
        assert store.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
        }

    def test_keys_are_independent(self, store):
        store.put("spec-a", "data", {"x": np.float64(1.0)})
        assert store.get("spec-b", "data") is None
        assert store.get("spec-a", "other-data") is None
        assert store.get("spec-a", "data") is not None

    def test_len_counts_entries(self, store):
        assert len(store) == 0
        store.put("a", "1", {"x": np.float64(0.0)})
        store.put("a", "2", {"x": np.float64(0.0)})
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_corruption_recovery(self, store):
        """A truncated/garbage entry is deleted and treated as a miss."""
        store.put("spec", "data", {"x": np.float64(42.0)})
        path = store.path_for("spec", "data")
        path.write_bytes(b"this is not an npz archive")
        assert store.get("spec", "data") is None
        assert store.corrupt == 1
        assert not path.exists()  # self-healed
        # A fresh put works and reads back cleanly afterwards.
        store.put("spec", "data", {"x": np.float64(43.0)})
        got = store.get("spec", "data")
        assert float(got["x"]) == 43.0

    def test_empty_result_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("spec", "data", {})

    def test_entry_id_stable(self):
        a = ResultStore.entry_id("spec", "data")
        assert a == ResultStore.entry_id("spec", "data")
        assert a != ResultStore.entry_id("data", "spec")  # order matters

    def test_warm_results_bit_identical_to_cold(self, store):
        """The satellite contract: a warm fetch returns the cold bytes."""
        rng = np.random.default_rng(7)
        cold = {
            "corr": rng.random(16),
            "events": rng.integers(0, 1000, 16),
        }
        store.put("spec", "data", cold)
        warm = store.get("spec", "data")
        assert np.array_equal(warm["corr"], cold["corr"])
        assert warm["corr"].dtype == cold["corr"].dtype
        assert np.array_equal(warm["events"], cold["events"])


    def test_get_many_is_one_get_per_entry(self, store):
        for i in (0, 2, 3):
            store.put("k", f"f{i}", {"x": np.arange(float(i + 1))})
        store.path_for("k", "f3").write_bytes(b"damaged")
        got = store.get_many("k", [f"f{i}" for i in range(4)])
        assert [g is None for g in got] == [False, True, False, True]
        assert np.array_equal(got[2]["x"], np.arange(3.0))
        assert store.stats() == {
            "hits": 2, "misses": 2, "stores": 3, "corrupt": 1,
        }
        assert not store.path_for("k", "f3").exists()  # only it healed
        assert store.get_many("k", []) == []


class TestThreadSafety:
    def test_concurrent_counters_exact(self, store):
        """N threads hammering get/put never lose a counter increment.

        One store instance may back every thread of a multi-session
        server; hits + misses must equal the number of get() calls
        exactly (a lost update would make the warm-run zero-miss
        assertion flaky).
        """
        import threading

        n_threads, n_ops = 8, 60
        store.put("spec", "warm", {"x": np.float64(1.0)})
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            barrier.wait()
            try:
                for i in range(n_ops):
                    store.get("spec", "warm")          # hit
                    store.get("spec", f"cold-{tid}-{i}")  # miss
                    store.put(
                        f"spec-{tid}", f"data-{i}", {"x": np.float64(i)}
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = store.stats()
        assert stats["hits"] == n_threads * n_ops
        assert stats["misses"] == n_threads * n_ops
        assert stats["stores"] == 1 + n_threads * n_ops
        assert stats["corrupt"] == 0

    def test_concurrent_corrupt_recovery_single_count(self, store, tmp_path):
        """Racing readers of one corrupt entry never double-unlink or crash."""
        import threading

        store.put("spec", "data", {"x": np.float64(1.0)})
        path = store.path_for("spec", "data")
        path.write_bytes(b"garbage")
        barrier = threading.Barrier(4)
        results = []

        def reader():
            barrier.wait()
            results.append(store.get("spec", "data"))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is None for r in results)
        assert not path.exists()
        stats = store.stats()
        # Every reader counted exactly one miss (corrupt or already
        # unlinked); at least the first one recorded the corruption.
        assert stats["corrupt"] >= 1
        assert stats["hits"] == 0
        assert stats["misses"] == 4


def _tamper_payload(path):
    """Rewrite an entry with a flipped payload but the original checksum:
    a readable archive whose contents silently changed on disk."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["x"] = np.asarray(arrays["x"]) + 1.0  # silent bit damage
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestChecksums:
    def test_checksum_rides_along_in_the_entry(self, store):
        from repro.runtime.store import CHECKSUM_KEY, checksum_arrays

        store.put("spec", "data", {"x": np.float64(1.0)})
        with np.load(store.path_for("spec", "data")) as archive:
            arrays = {name: archive[name] for name in archive.files}
        assert CHECKSUM_KEY in arrays
        payload = {k: v for k, v in arrays.items() if k != CHECKSUM_KEY}
        assert arrays[CHECKSUM_KEY].item() == checksum_arrays(payload)

    def test_checksum_key_is_reserved(self, store):
        from repro.runtime.store import CHECKSUM_KEY

        with pytest.raises(ValueError, match="reserved"):
            store.put("spec", "data", {CHECKSUM_KEY: np.float64(1.0)})

    def test_get_rejects_tampered_payload(self, store):
        """Readable-but-wrong entries (valid zip, silently altered
        payload) fail checksum verification, not just BadZipFile."""
        store.put("spec", "data", {"x": np.float64(1.0)})
        path = store.path_for("spec", "data")
        _tamper_payload(path)
        assert store.get("spec", "data") is None
        assert store.corrupt == 1
        assert not path.exists()  # self-healed

    def test_checksum_is_order_independent(self):
        from repro.runtime.store import checksum_arrays

        a = {"x": np.arange(3.0), "y": np.arange(4)}
        b = {"y": np.arange(4), "x": np.arange(3.0)}
        assert checksum_arrays(a) == checksum_arrays(b)


class TestFsck:
    def test_clean_store(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        store.put("a", "2", {"x": np.float64(2.0)})
        report = store.fsck()
        assert report.clean
        assert report.scanned == report.intact == 2
        assert report.damaged == 0
        assert "2 entries scanned; clean" in report.summary()

    def test_unreadable_entry_is_flagged_and_repaired(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        path = store.path_for("a", "1")
        path.write_bytes(b"garbage, not a zip")
        report = store.fsck()
        assert not report.clean
        assert report.damaged == 1
        (entry, reason), = report.corrupt
        assert entry == str(path)
        assert "unreadable archive" in reason
        assert not path.exists()  # repaired: deleted
        assert store.corrupt == 1
        assert store.fsck().clean  # second pass finds nothing

    def test_tampered_entry_fails_checksum(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        path = store.path_for("a", "1")
        _tamper_payload(path)
        report = store.fsck(repair=False)
        (_, reason), = report.corrupt
        assert "does not match" in reason

    def test_no_repair_reports_but_keeps_files(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        path = store.path_for("a", "1")
        path.write_bytes(b"garbage")
        report = store.fsck(repair=False)
        assert report.damaged == 1
        assert not report.repaired
        assert path.exists()  # only reported
        assert store.corrupt == 0  # nothing was quarantined

    def test_pre_checksum_entries_are_unverified_not_deleted(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        legacy = store.root / "ab" / ("c" * 64 + ".npz")
        legacy.parent.mkdir(parents=True, exist_ok=True)
        with open(legacy, "wb") as fh:
            np.savez(fh, x=np.float64(9.0))  # written before checksums
        report = store.fsck()
        assert report.clean
        assert report.unverified == 1
        assert report.intact == 1
        assert legacy.exists()  # never deleted
        assert "pre-checksum" in report.summary()

    def test_stray_tmp_files_are_swept(self, store):
        store.put("a", "1", {"x": np.float64(1.0)})
        shard = next(p for p in store.root.iterdir() if p.is_dir())
        stray = shard / ".tmp-deadbeef.npz"
        stray.write_bytes(b"half-written")
        assert len(store) == 1  # strays never masquerade as entries
        report = store.fsck(repair=False)
        assert report.stray_tmp == 1
        assert report.clean  # strays are not damage
        assert stray.exists()
        report = store.fsck(repair=True)
        assert report.stray_tmp == 1
        assert not stray.exists()
        assert "stray tmp" in report.summary()

    def test_fsck_after_real_worker_writes(self, tmp_path):
        """A store produced by execute_job passes fsck end to end."""
        from repro.api import ExperimentSpec
        from repro.runtime.queue import ExperimentQueue, execute_job
        from repro.signals.dataset import DatasetSpec

        store = ResultStore(tmp_path / "cache")
        spec = ExperimentSpec.for_scheme("datc")
        dataset = DatasetSpec(n_patterns=2, duration_s=2.0, seed=2015)
        with ExperimentQueue(tmp_path / "q.db") as queue:
            queue.submit_dataset(spec, dataset, shard_size=2)
            job = queue.claim("w", lease_s=60.0)
            execute_job(job, store)
        report = store.fsck()
        assert report.clean
        assert report.scanned == report.intact == 2
