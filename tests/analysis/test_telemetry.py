"""Perf-trajectory telemetry: record files, loading, regression gate."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import telemetry


class TestBenchDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path / "env"))
        assert telemetry.bench_dir(tmp_path / "flag") == tmp_path / "flag"

    def test_env_var_wins_over_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path / "env"))
        assert telemetry.bench_dir() == tmp_path / "env"

    def test_default_is_benchmarks_dir_when_present(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert str(telemetry.bench_dir()) == "."
        (tmp_path / "benchmarks").mkdir()
        assert str(telemetry.bench_dir()) == "benchmarks"

    def test_unknown_area_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench area"):
            telemetry.record_path("gpu", tmp_path)
        with pytest.raises(ValueError, match="unknown bench area"):
            telemetry.make_record("gpu", "m", 1.0, [])


class TestRecords:
    def test_record_shape(self):
        record = telemetry.make_record(
            "encoder",
            "batched speedup",
            3.25,
            [{"name": "a", "time_ms": 1.0, "throughput": 2.0, "speedup": 1.0}],
            params={"signals": 4},
            spec_keys={"datc": "abc"},
        )
        assert record["area"] == "encoder"
        assert record["headline"] == {
            "metric": "batched speedup",
            "value": 3.25,
        }
        assert set(record["host"]) == {
            "platform", "machine", "python", "numpy", "cpu_count"
        }
        assert record["host"]["numpy"]
        assert record["recorded_at"].endswith("Z")
        assert record["params"] == {"signals": 4}
        assert record["spec_keys"] == {"datc": "abc"}

    def test_append_accumulates_and_loads(self, tmp_path):
        for value in (1.0, 2.0, 3.0):
            path = telemetry.append_record(
                telemetry.make_record("rx", "speedup", value, []),
                directory=tmp_path,
            )
        assert path == tmp_path / "BENCH_rx.json"
        records = json.loads(path.read_text())
        assert [r["headline"]["value"] for r in records] == [1.0, 2.0, 3.0]
        loaded = telemetry.load_trajectories(tmp_path)
        assert set(loaded) == {"rx"}
        assert len(loaded["rx"]) == 3

    def test_corrupt_file_reads_as_empty(self, tmp_path):
        path = tmp_path / "BENCH_link.json"
        path.write_text("{not json")
        assert telemetry.load_trajectories(tmp_path) == {}
        # appending over the corrupt file starts a fresh trajectory
        telemetry.append_record(
            telemetry.make_record("link", "speedup", 2.0, []),
            directory=tmp_path,
        )
        assert len(telemetry.load_trajectories(tmp_path)["link"]) == 1


class TestStrictLoading:
    def test_missing_file_is_not_damage(self, tmp_path):
        assert telemetry.load_trajectories(tmp_path, strict=True) == {}

    def test_corrupt_file_raises_pointed_error(self, tmp_path):
        (tmp_path / "BENCH_queue.json").write_text("{not json")
        with pytest.raises(telemetry.TelemetryError, match="not valid JSON"):
            telemetry.load_trajectories(tmp_path, strict=True)

    def test_empty_list_raises(self, tmp_path):
        (tmp_path / "BENCH_queue.json").write_text("[]")
        with pytest.raises(telemetry.TelemetryError, match="holds no records"):
            telemetry.load_trajectories(tmp_path, strict=True)

    def test_wrong_shape_raises(self, tmp_path):
        (tmp_path / "BENCH_queue.json").write_text('{"area": "queue"}')
        with pytest.raises(telemetry.TelemetryError, match="JSON list"):
            telemetry.load_trajectories(tmp_path, strict=True)

    def test_error_names_the_damaged_file(self, tmp_path):
        (tmp_path / "BENCH_rx.json").write_text("[1, 2]")
        with pytest.raises(telemetry.TelemetryError, match="BENCH_rx.json"):
            telemetry.load_trajectories(tmp_path, strict=True)

    def test_committed_records_all_load(self):
        """Every committed BENCH_*.json belongs to an area and loads —
        including older points whose host block carries since-removed
        fields (``kernel_backend`` and a JIT compiler version)."""
        directory = Path(__file__).resolve().parents[2] / "benchmarks"
        files = sorted(directory.glob("BENCH_*.json"))
        assert files
        loaded = telemetry.load_trajectories(directory, strict=True)
        assert {f.stem[len("BENCH_"):] for f in files} == set(loaded)
        table, _ = telemetry.render_report(loaded, telemetry.regression_pct())
        assert all(area in table for area in loaded)


class TestConcurrentAppend:
    """The append path is a locked read-modify-write: no lost records."""

    def test_append_leaves_no_lock_sidecar(self, tmp_path):
        # The sidecar exists only while an append holds it; a clean
        # release removes it, so trajectories never accumulate litter.
        telemetry.append_record(
            telemetry.make_record("queue", "speedup", 1.0, []),
            directory=tmp_path,
        )
        assert not (tmp_path / "BENCH_queue.json.lock").exists()
        assert list(tmp_path.glob("*.lock")) == []
        assert set(telemetry.load_trajectories(tmp_path)) == {"queue"}

    def test_threaded_appends_keep_every_record(self, tmp_path):
        def write(base):
            for i in range(5):
                telemetry.append_record(
                    telemetry.make_record("queue", "speedup", base + i, []),
                    directory=tmp_path,
                )

        threads = [
            threading.Thread(target=write, args=(100.0 * t,))
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = telemetry.load_trajectories(tmp_path)["queue"]
        values = {r["headline"]["value"] for r in records}
        assert len(records) == 20
        assert values == {100.0 * t + i for t in range(4) for i in range(5)}

    def test_multiprocess_hammer_keeps_every_record(self, tmp_path):
        """4 writer processes x 5 appends -> exactly 20 records survive.

        This is the queue-worker scenario: peers on one host finishing
        shards and recording telemetry into the same BENCH file.
        """
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = os.environ.copy()
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = (
            "import sys\n"
            "from repro.analysis import telemetry\n"
            "base = float(sys.argv[1])\n"
            "for i in range(5):\n"
            "    telemetry.append_record(\n"
            "        telemetry.make_record('queue', 'speedup', base + i, []),\n"
            f"        directory={str(tmp_path)!r},\n"
            "    )\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", child, str(100.0 * p)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            )
            for p in range(4)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out
        records = telemetry.load_trajectories(tmp_path, strict=True)["queue"]
        values = {r["headline"]["value"] for r in records}
        assert len(records) == 20, "concurrent append lost a record"
        assert values == {100.0 * p + i for p in range(4) for i in range(5)}

    def test_stale_fallback_lock_is_broken(self, tmp_path, monkeypatch):
        """With flock unavailable, an orphaned .lock from a dead writer
        must not wedge appends forever — mtime age breaks it."""
        monkeypatch.setitem(sys.modules, "fcntl", None)  # forces fallback
        lock = tmp_path / "BENCH_queue.json.lock"
        lock.write_text("dead-writer")
        old = lock.stat().st_mtime - 2 * telemetry.LOCK_TIMEOUT_S
        os.utime(lock, (old, old))
        telemetry.append_record(
            telemetry.make_record("queue", "speedup", 1.0, []),
            directory=tmp_path,
        )
        assert len(telemetry.load_trajectories(tmp_path)["queue"]) == 1


class TestRegressionGate:
    def _trajectory(self, *values):
        return {
            "encoder": [
                telemetry.make_record("encoder", "batched speedup", v, [])
                for v in values
            ]
        }

    def test_single_point_never_regresses(self):
        table, regressions = telemetry.render_report(self._trajectory(3.0), 20)
        assert "encoder" in table
        assert regressions == []

    def test_drop_within_allowance_passes(self):
        _, regressions = telemetry.render_report(
            self._trajectory(3.0, 2.5), 20
        )
        assert regressions == []

    def test_drop_beyond_allowance_flags(self):
        _, regressions = telemetry.render_report(
            self._trajectory(3.0, 2.0), 20
        )
        assert len(regressions) == 1
        assert "encoder" in regressions[0]
        assert "BENCH_REGRESSION_PCT" in regressions[0]

    def test_only_latest_vs_previous_counts(self):
        # an old dip doesn't flag once the latest point recovers
        _, regressions = telemetry.render_report(
            self._trajectory(3.0, 1.0, 3.1), 20
        )
        assert regressions == []

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_REGRESSION_PCT, "50")
        assert telemetry.regression_pct() == 50.0
        monkeypatch.delenv(telemetry.ENV_REGRESSION_PCT)
        assert telemetry.regression_pct() == telemetry.DEFAULT_REGRESSION_PCT
