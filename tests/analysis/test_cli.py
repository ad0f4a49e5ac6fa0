"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["fig2"], ["fig3"], ["fig5"], ["fig6"], ["fig7"], ["symbols"],
            ["table1"], ["timing"], ["verilog"], ["vcd"], ["report"], ["encode"],
            ["bench"], ["run"], ["sweep"],
            ["queue", "submit", "--db", "q.db"],
            ["queue", "status", "--db", "q.db"],
            ["queue", "reset", "--db", "q.db"],
            ["worker", "--db", "q.db", "--store", "s"],
            ["store", "fsck", "s"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_queue_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCommands:
    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Number of cells" in out

    def test_timing_prints(self, capsys):
        assert main(["timing"]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_fig2_prints(self, capsys):
        assert main(["fig2"]) == 0
        assert "D-ATC" in capsys.readouterr().out

    def test_verilog_to_stdout(self, capsys):
        assert main(["verilog", "-o", "-"]) == 0
        assert "module dtc_top" in capsys.readouterr().out

    def test_verilog_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "dtc.v")
        assert main(["verilog", "-o", out]) == 0
        assert "endmodule" in open(out).read()

    def test_vcd_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "dtc.vcd")
        assert main(["vcd", "-o", out, "--cycles", "300"]) == 0
        assert "$enddefinitions" in open(out).read()

    def test_encode_npz(self, tmp_path, capsys):
        from repro.signals.io import load_event_stream

        out = str(tmp_path / "events.npz")
        assert main(["encode", "-o", out]) == 0
        stream = load_event_stream(out)
        assert stream.n_events > 0
        assert stream.symbols_per_event == 5

    def test_encode_csv(self, tmp_path, capsys):
        out = str(tmp_path / "events.csv")
        assert main(["encode", "-o", out]) == 0
        header = open(out).readline().strip()
        assert header == "time_s,level,vth_v"

    def test_fig5_reduced(self, capsys):
        assert main(["fig5", "--patterns", "8"]) == 0
        assert "correlation over 8 patterns" in capsys.readouterr().out

    def test_fig5_with_jobs(self, capsys):
        assert main(["fig5", "--patterns", "6", "--jobs", "2"]) == 0
        assert "correlation over 6 patterns" in capsys.readouterr().out

    def test_bench_prints_all_paths(self, capsys):
        assert (
            main(
                [
                    "bench", "--scheme", "both", "--signals", "2",
                    "--duration", "2", "--repeats", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for needle in ("one-shot loop", "chunked", "batched 2-D", "[atc]", "[datc]"):
            assert needle in out

    def test_bench_link_prints_all_paths(self, capsys):
        assert (
            main(
                [
                    "bench", "--link", "--scheme", "datc", "--signals", "2",
                    "--duration", "2", "--repeats", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for needle in (
            "link throughput", "per-stream loop", "per-stream vectorised",
            "batched", "[datc]",
        ):
            assert needle in out


def parse_speedups(out: str) -> "list[float]":
    """The 'N.Nx' speedup figures a bench table reports, in row order."""
    return [
        float(tok[:-1])
        for line in out.splitlines()
        for tok in line.split()
        if tok.endswith("x") and tok[:-1].replace(".", "", 1).isdigit()
    ]


class TestBenchSubcommands:
    """Smoke-run each `bench` stage and parse its speedup/equality report."""

    def test_bench_rx_reports_speedups_and_equality(self, capsys):
        assert (
            main(
                [
                    "bench", "--rx", "--scheme", "atc", "--signals", "2",
                    "--duration", "2", "--repeats", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "receiver throughput" in out
        assert "speedup" in out
        # One speedup per table row; the loop baseline row is exactly 1.0x.
        speedups = parse_speedups(out)
        assert len(speedups) >= 3
        assert speedups[0] == 1.0
        # Equality is asserted inside the bench; with correlation the run
        # prints the loop-vs-batched comparison line.
        assert "with correlation" in out

    def test_bench_link_reports_speedups(self, capsys):
        assert (
            main(
                [
                    "bench", "--link", "--scheme", "atc", "--signals", "2",
                    "--duration", "2", "--repeats", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        speedups = parse_speedups(out)
        assert len(speedups) == 3  # loop, vectorised, batched
        assert speedups[0] == 1.0

    def test_bench_sweep_reports_backends_and_equality(self, capsys):
        assert (
            main(
                [
                    "bench", "--sweep", "--scheme", "datc", "--signals", "4",
                    "--duration", "2", "--jobs", "2", "--repeats", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep throughput" in out
        for backend in ("serial", "thread", "process"):
            assert backend in out
        speedups = parse_speedups(out)
        assert len(speedups) == 3  # one per backend
        assert speedups[0] == 1.0  # serial is the baseline row
        assert out.count("yes") == 2  # thread + process element-wise identical
        assert "baseline" in out

    def test_bench_sweep_rejects_bad_backend_combo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--sweep", "--rx"])

    def test_bench_cache_exclusive_with_other_stages(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--cache", "--sweep"])

    def test_bench_cache_cold_vs_warm(self, tmp_path, capsys):
        assert (
            main(
                [
                    "bench", "--cache", "--scheme", "datc", "--signals", "2",
                    "--duration", "2", "--repeats", "1",
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache throughput" in out
        assert "cold (evaluate+put)" in out
        assert "warm (store hits)" in out
        assert "2 hits / 2 misses / 2 stores" in out


class TestBenchTelemetry:
    """Every bench stage writes a BENCH_<area>.json trajectory point."""

    def test_bench_writes_record(self, tmp_path, capsys):
        out_dir = tmp_path / "records"
        assert (
            main(
                [
                    "bench", "--signals", "2", "--duration", "2",
                    "--repeats", "1", "--bench-out", str(out_dir),
                ]
            )
            == 0
        )
        assert "recorded ->" in capsys.readouterr().out
        import json

        records = json.loads((out_dir / "BENCH_encoder.json").read_text())
        assert len(records) == 1
        record = records[0]
        assert record["area"] == "encoder"
        assert record["headline"]["value"] > 0
        assert record["params"]["signals"] == 2
        assert record["spec_keys"]["datc"]
        assert len(record["rows"]) == 3

    def test_bench_env_dir_and_append(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "env-records"))
        argv = ["bench", "--signals", "2", "--duration", "2", "--repeats", "1"]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        import json

        records = json.loads(
            (tmp_path / "env-records" / "BENCH_encoder.json").read_text()
        )
        assert len(records) == 2

    def test_report_empty_dir_fails_pointedly(self, tmp_path, capsys):
        assert (
            main(["bench", "--report", "--bench-out", str(tmp_path)]) == 1
        )
        out = capsys.readouterr().out
        assert "no BENCH_*.json records" in out
        assert "Traceback" not in out

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("{not json", "not valid JSON"),
            ("[]", "holds no records"),
            ('{"area": "queue"}', "expected a JSON list"),
        ],
    )
    def test_report_damaged_file_fails_pointedly(
        self, tmp_path, capsys, text, needle
    ):
        (tmp_path / "BENCH_queue.json").write_text(text)
        assert (
            main(["bench", "--report", "--bench-out", str(tmp_path)]) == 1
        )
        out = capsys.readouterr().out
        assert "bench --report:" in out
        assert "BENCH_queue.json" in out
        assert needle in out
        assert "Traceback" not in out

    def test_report_renders_and_gates(self, tmp_path, monkeypatch, capsys):
        from repro.analysis.telemetry import append_record, make_record

        append_record(
            make_record("encoder", "batched speedup", 4.0, []), tmp_path
        )
        assert (
            main(["bench", "--report", "--bench-out", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "encoder" in out and "no headline regressions" in out
        # a >20% drop fails the gate; raising the knob lets it pass
        append_record(
            make_record("encoder", "batched speedup", 2.0, []), tmp_path
        )
        assert (
            main(["bench", "--report", "--bench-out", str(tmp_path)]) == 1
        )
        assert "REGRESSION" in capsys.readouterr().out
        monkeypatch.setenv("BENCH_REGRESSION_PCT", "60")
        assert (
            main(["bench", "--report", "--bench-out", str(tmp_path)]) == 0
        )
        capsys.readouterr()


class TestQueueCommands:
    """The queue/worker/store CLI surface (single in-process worker)."""

    def test_submit_worker_status_round_trip(self, tmp_path, capsys):
        db = str(tmp_path / "q.db")
        store = str(tmp_path / "store")
        assert (
            main(
                [
                    "queue", "submit", "--db", db,
                    "--patterns", "3", "--duration", "2.0",
                ]
            )
            == 0
        )
        assert "submitted 3 new shard job(s)" in capsys.readouterr().out
        # Re-submission is idempotent.
        assert (
            main(
                [
                    "queue", "submit", "--db", db,
                    "--patterns", "3", "--duration", "2.0",
                ]
            )
            == 0
        )
        assert "submitted 0 new shard job(s)" in capsys.readouterr().out
        assert main(["worker", "--db", db, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "completed 3" in out
        assert main(["queue", "status", "--db", db, "--strict"]) == 0
        assert "done 3" in capsys.readouterr().out

    def test_worker_ready_file_holds_pid(self, tmp_path, capsys):
        import os

        db = str(tmp_path / "q.db")
        ready = tmp_path / "ready"
        assert (
            main(
                [
                    "worker", "--db", db, "--store", str(tmp_path / "s"),
                    "--ready-file", str(ready),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert int(ready.read_text()) == os.getpid()

    def test_store_fsck_clean_and_damaged(self, tmp_path, capsys):
        from repro.runtime.store import ResultStore

        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("k", "fp", {"x": np.arange(4)})
        assert main(["store", "fsck", str(root)]) == 0
        assert "clean" in capsys.readouterr().out
        path = store.path_for("k", "fp")
        path.write_bytes(b"garbage")
        assert main(["store", "fsck", str(root), "--no-repair"]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert path.exists()  # --no-repair only reports
        assert main(["store", "fsck", str(root)]) == 1
        assert not path.exists()  # repaired: damage deleted
        assert main(["store", "fsck", str(root)]) == 0

    def test_bench_queue_exclusive_with_other_stages(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--queue", "--rx"])


class TestSpecCommands:
    """The declarative `run`/`sweep` subcommands and their cache plumbing."""

    def test_run_prints_summary(self, capsys):
        assert main(["run", "--pattern", "2", "--scheme", "atc"]) == 0
        out = capsys.readouterr().out
        assert "correlation" in out and "events" in out
        assert "on pattern 2" in out

    def test_run_dump_and_reload_spec(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        assert main(
            ["run", "--pattern", "2", "--dump-spec", spec_path]
        ) == 0
        first = capsys.readouterr().out
        assert f"wrote {spec_path}" in first
        # Re-running from the dumped spec reproduces the same summary line.
        assert main(["run", "--pattern", "2", "--spec", spec_path]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_run_cache_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["run", "--pattern", "2", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 miss(es), 1 store(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hit(s), 0 miss(es)" in warm
        # Identical numbers on the warm path.
        assert cold.splitlines()[1] == warm.splitlines()[1]

    def test_sweep_axis_table(self, capsys):
        assert (
            main(
                [
                    "sweep", "--scheme", "atc", "--pattern", "2",
                    "--axis", "encoder.config.vth", "--values", "0.2,0.4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep of encoder.config.vth" in out
        assert out.count("\n") >= 4  # header + 2 value rows

    def test_sweep_requires_axis_or_dataset(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--pattern", "2"])

    def test_sweep_dataset_cached_warm_run_all_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--dataset", "--patterns", "2", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 miss(es), 2 store(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es), 0 store(s)" in warm
        assert cold.splitlines()[1] == warm.splitlines()[1]

    def test_fig5_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["fig5", "--patterns", "2", "--cache-dir", cache]
        assert main(argv) == 0
        assert "cache:" in capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # Both schemes' sweeps fully served from the store on the re-run.
        assert "4 hit(s), 0 miss(es), 0 store(s)" in warm
