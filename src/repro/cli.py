"""Command-line interface: regenerate any paper artifact from the shell.

Usage (after ``pip install -e .``)::

    python -m repro fig3                 # one figure's paper-vs-measured rows
    python -m repro fig5 --patterns 24   # reduced-size dataset sweep
    python -m repro table1               # synthesis summary
    python -m repro timing               # DTC static timing budget
    python -m repro verilog -o dtc.v     # emit synthesizable RTL
    python -m repro vcd -o dtc.vcd       # waveform dump of a real pattern
    python -m repro report --quick       # regenerate EXPERIMENTS.md
    python -m repro bench                # one-shot vs chunked vs batched
    python -m repro bench --sweep        # dataset sweep across backends
    python -m repro bench --cache        # cold vs warm cached dataset sweep
    python -m repro fig5 --jobs 4 --backend process   # sharded sweep

Declarative experiment API (see docs/API.md)::

    python -m repro run --pattern 22 --dump-spec spec.json
    python -m repro run --spec spec.json --cache-dir ~/.cache/repro
    python -m repro sweep --scheme atc --axis encoder.config.vth --values 0.1,0.2,0.3
    python -m repro sweep --axis stream.drop_prob --values 0.0,0.2,0.4
    python -m repro sweep --dataset --patterns 24 --cache-dir ./cache
    python -m repro fig5 --patterns 24 --cache-dir ./cache   # warm re-runs

Distributed queue (see docs/QUEUE.md)::

    python -m repro queue submit --db q.db --patterns 32
    python -m repro worker --db q.db --store ./store    # x N, any host
    python -m repro queue status --db q.db
    python -m repro store fsck ./store
    python -m repro bench --queue                       # N-worker vs serial
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import numpy as np

__all__ = ["main"]


def _load_spec(args: argparse.Namespace):
    """The experiment spec an invocation selects (--spec wins over --scheme)."""
    from .api import ExperimentSpec

    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            return ExperimentSpec.from_json(fh.read())
    scheme = getattr(args, "scheme", None) or "datc"
    return ExperimentSpec.for_scheme(scheme)


def _open_store(args: argparse.Namespace):
    """The result store behind ``--cache-dir`` (None when uncached)."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from .runtime.store import ResultStore

    return ResultStore(args.cache_dir)


def _print_store_stats(store) -> None:
    if store is not None:
        s = store.stats()
        print(
            f"cache: {s['hits']} hit(s), {s['misses']} miss(es), "
            f"{s['stores']} store(s) -> {store.root}"
        )


def _best_of(fn, repeats: int) -> "tuple[float, object]":
    """Best wall-clock over ``repeats`` runs of ``fn``, plus its output."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = perf_counter()
        out = fn()
        best = min(best, perf_counter() - t0)
    return best, out


def _spec_keys(schemes) -> "dict[str, str]":
    """Each scheme's canonical spec key — ties a bench record to results."""
    from .api import ExperimentSpec

    return {s: ExperimentSpec.for_scheme(s).key() for s in schemes}


def _record_bench(
    args: argparse.Namespace,
    area: str,
    headline_metric: str,
    headline_value: float,
    rows: "list[dict]",
    params: "dict | None" = None,
    spec_keys: "dict | None" = None,
    notes: "str | None" = None,
) -> None:
    """Append this run to the area's BENCH_<area>.json trajectory."""
    from .analysis.telemetry import append_record, make_record

    path = append_record(
        make_record(
            area,
            headline_metric,
            headline_value,
            rows,
            params=params,
            spec_keys=spec_keys,
            notes=notes,
        ),
        directory=getattr(args, "bench_out", None),
    )
    print(f"recorded -> {path}")


def _cmd_fig2(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_fig2

    print(run_fig2().format_table())
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_fig3

    print(run_fig3(pattern_id=args.pattern).format_table())
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_fig5

    store = _open_store(args)
    print(
        run_fig5(
            n_patterns=args.patterns,
            jobs=args.jobs,
            backend=args.backend,
            store=store,
        ).format_table()
    )
    _print_store_stats(store)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Experiment
    from .signals.dataset import default_dataset

    spec = _load_spec(args)
    if args.dump_spec:
        with open(args.dump_spec, "w") as fh:
            fh.write(spec.to_json() + "\n")
        print(f"wrote {args.dump_spec}")
    store = _open_store(args)
    experiment = Experiment(spec, store=store)
    pattern = default_dataset().pattern(args.pattern)
    point = experiment.evaluate(pattern)
    print(f"spec {spec.key()[:16]} ({spec.scheme}) on pattern {args.pattern}:")
    print(
        f"  correlation {point.correlation_pct:.2f}%  "
        f"events {point.n_events}  symbols {point.n_symbols}"
    )
    _print_store_stats(store)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import Experiment
    from .signals.dataset import default_dataset

    spec = _load_spec(args)
    store = _open_store(args)
    experiment = Experiment(spec, store=store)
    dataset = default_dataset()
    if args.dataset:
        result = experiment.dataset_sweep(
            dataset, limit=args.patterns, jobs=args.jobs, backend=args.backend
        )
        lo, hi = result.correlation_range
        print(
            f"dataset sweep [{result.scheme}] over "
            f"{result.pattern_ids.size} patterns "
            f"(spec {spec.key()[:16]}):"
        )
        print(
            f"  correlation {lo:.1f}-{hi:.1f}% "
            f"(mean {result.correlation_mean:.1f}%), "
            f"event spread {result.event_spread:.2f}"
        )
        _print_store_stats(store)
        return 0
    if not args.axis or not args.values:
        raise SystemExit("sweep needs --axis and --values (or --dataset)")
    values = [json.loads(tok) for tok in args.values.split(",")]
    pattern = dataset.pattern(args.pattern)
    try:
        points = experiment.sweep(
            pattern,
            args.axis,
            values,
            jobs=args.jobs,
            backend=args.backend,
            seed=args.seed,
        )
    except ValueError as exc:
        # e.g. an axis the selected scheme's config doesn't have
        # ("encoder.config.vth" on the default datc spec needs --scheme atc).
        raise SystemExit(f"sweep failed: {exc}")
    print(
        f"sweep of {args.axis} on pattern {args.pattern} "
        f"(spec {spec.key()[:16]}):"
    )
    print(f"{'value':>12} {'corr %':>8} {'events':>8} {'symbols':>9}")
    for point in points:
        print(
            f"{point.parameter:>12g} {point.correlation_pct:>8.2f} "
            f"{point.n_events:>8d} {point.n_symbols:>9d}"
        )
    _print_store_stats(store)
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_fig6

    print(run_fig6(pattern_id=args.pattern).format_table())
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_fig7

    print(run_fig7(jobs=args.jobs, backend=args.backend).format_table())
    return 0


def _cmd_symbols(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_symbol_comparison

    print(run_symbol_comparison(pattern_id=args.pattern).format_table())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_table1

    print(run_table1().format_table())
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from .hardware.timing import estimate_timing

    print(estimate_timing().format_table())
    return 0


def _cmd_verilog(args: argparse.Namespace) -> int:
    from .hardware.verilog import generate_dtc_verilog

    text = generate_dtc_verilog()
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    return 0


def _cmd_vcd(args: argparse.Namespace) -> int:
    from .core.config import DATCConfig
    from .core.datc import datc_encode
    from .digital.vcd import vcd_from_dtc_run
    from .signals.dataset import default_dataset

    pattern = default_dataset().pattern(args.pattern)
    _, trace = datc_encode(pattern.emg, pattern.fs, DATCConfig(quantized=True))
    n = min(args.cycles, trace.d_in.size)
    vcd_from_dtc_run(args.output, trace.d_in[:n])
    print(f"wrote {args.output} ({n} clock cycles of pattern {args.pattern})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import main as report_main

    argv = ["--output", args.output]
    if args.quick:
        argv.append("--quick")
    return report_main(argv)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.report:
        return _bench_report(args)
    if args.link:
        return _bench_link(args)
    if args.rx:
        return _bench_rx(args)
    if args.sweep:
        return _bench_sweep(args)
    if args.cache:
        return _bench_cache(args)
    if args.sessions:
        return _bench_sessions(args)
    if args.queue:
        return _bench_queue(args)
    if args.serve:
        return _bench_serve(args)
    from .core.atc import atc_encode
    from .core.config import ATCConfig, DATCConfig
    from .core.datc import datc_encode
    from .core.encoders import ATCEncoder, DATCEncoder, encode_batch
    from .signals.dataset import DatasetSpec

    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    patterns = [dataset.pattern(i) for i in range(args.signals)]
    fs = patterns[0].fs
    signals = np.stack([p.emg for p in patterns])
    n_total = signals.size

    schemes = ("atc", "datc") if args.scheme == "both" else (args.scheme,)
    record_rows: "list[dict]" = []
    headline = 1.0
    print(
        f"encoder throughput: {args.signals} signals x {args.duration:g} s "
        f"@ {fs:g} Hz ({n_total} samples), chunk={args.chunk}, "
        f"best of {args.repeats}"
    )
    header = (
        f"{'path':<22}{'time (ms)':>11}{'samples/s':>14}{'events/s':>11}"
        f"{'speedup':>9}"
    )
    for scheme in schemes:
        config = ATCConfig() if scheme == "atc" else DATCConfig()
        one_shot = atc_encode if scheme == "atc" else datc_encode
        encoder_cls = ATCEncoder if scheme == "atc" else DATCEncoder

        def run_one_shot() -> int:
            return sum(one_shot(row, fs, config)[0].n_events for row in signals)

        def run_chunked() -> int:
            total = 0
            for row in signals:
                enc = encoder_cls(fs, config)
                for start in range(0, row.size, args.chunk):
                    enc.push(row[start : start + args.chunk])
                enc.finalize()
                total += enc.stream.n_events
            return total

        def run_batched() -> int:
            return sum(s.n_events for s, _ in encode_batch(signals, fs, config))

        rows = [
            ("one-shot loop", run_one_shot),
            (f"chunked ({args.chunk})", run_chunked),
            ("batched 2-D", run_batched),
        ]
        print(f"\n[{scheme}]\n{header}\n" + "-" * len(header))
        base_t = None
        for name, fn in rows:
            t, events = _best_of(fn, args.repeats)
            base_t = t if base_t is None else base_t
            speedup = base_t / t
            if name == "batched 2-D":
                headline = speedup
            record_rows.append(
                {
                    "name": f"{scheme}:{name}",
                    "time_ms": t * 1e3,
                    "throughput": n_total / t,
                    "speedup": speedup,
                }
            )
            print(
                f"{name:<22}{t * 1e3:>11.1f}{n_total / t:>14.3g}"
                f"{events / t:>11.3g}{speedup:>8.1f}x"
            )
    _record_bench(
        args,
        "encoder",
        f"{schemes[-1]} batched-vs-loop encode speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "chunk": args.chunk,
            "repeats": args.repeats,
            "schemes": list(schemes),
        },
        spec_keys=_spec_keys(schemes),
    )
    return 0


def _bench_rx(args: argparse.Namespace) -> int:
    """Receiver throughput: per-stream loop vs chunked vs batched decode."""
    from .core.config import ATCConfig, DATCConfig
    from .core.encoders import encode_batch
    from .core.events import EventStream
    from .rx.correlation import (
        aligned_correlation_percent,
        aligned_correlation_percent_batch,
    )
    from .rx.decoders import StreamingDecoder, reconstruct_batch, stream_chunks
    from .rx.reconstruction import reconstruct_hybrid, reconstruct_rate
    from .signals.dataset import DatasetSpec

    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    patterns = [dataset.pattern(i) for i in range(args.signals)]
    fs = patterns[0].fs
    signals = np.stack([p.emg for p in patterns])
    references = np.stack([p.ground_truth_envelope() for p in patterns])
    chunk_s = args.chunk / fs

    def split(stream: "EventStream") -> "list[EventStream]":
        bounds = np.arange(0.0, stream.duration_s, chunk_s)[1:]
        return stream_chunks(stream, np.append(bounds, stream.duration_s))

    schemes = ("atc", "datc") if args.scheme == "both" else (args.scheme,)
    record_rows: "list[dict]" = []
    headline = 1.0
    print(
        f"receiver throughput: {args.signals} streams x {args.duration:g} s, "
        f"decode @ 100 Hz, chunk={args.chunk} samples "
        f"({chunk_s:g} s), best of {args.repeats}"
    )
    header = (
        f"{'path':<22}{'time (ms)':>11}{'streams/s':>14}{'speedup':>9}"
    )
    for scheme in schemes:
        config = ATCConfig() if scheme == "atc" else DATCConfig()
        streams = [s for s, _ in encode_batch(signals, fs, config)]
        reconstruct = reconstruct_rate if scheme == "atc" else reconstruct_hybrid
        chunked = [split(s) for s in streams]

        def run_loop() -> "list[np.ndarray]":
            if scheme == "atc":
                return [reconstruct(s) for s in streams]
            return [
                reconstruct(s, vref=config.vref, dac_bits=config.dac_bits)
                for s in streams
            ]

        def run_chunked() -> "list[np.ndarray]":
            out = []
            for chunks in chunked:
                dec = StreamingDecoder(scheme=scheme, config=config)
                for chunk in chunks:
                    dec.push(chunk)
                dec.finalize()
                out.append(dec.envelope)
            return out

        def run_batched() -> np.ndarray:
            return reconstruct_batch(streams, scheme, config)

        rows = [
            ("per-stream loop", run_loop),
            (f"chunked ({args.chunk})", run_chunked),
            ("batched 2-D", run_batched),
        ]
        print(f"\n[{scheme}] reconstruction\n{header}\n" + "-" * len(header))
        base_t, base_recons = None, None
        for name, fn in rows:
            t, recons = _best_of(fn, args.repeats)
            if base_t is None:
                base_t, base_recons = t, recons
            elif not all(
                np.array_equal(r, b) for r, b in zip(recons, base_recons)
            ):
                raise AssertionError(
                    f"{name} reconstructions diverged from the loop"
                )
            speedup = base_t / t
            if name == "batched 2-D":
                headline = speedup
            record_rows.append(
                {
                    "name": f"{scheme}:{name}",
                    "time_ms": t * 1e3,
                    "throughput": args.signals / t,
                    "speedup": speedup,
                }
            )
            print(
                f"{name:<22}{t * 1e3:>11.1f}{args.signals / t:>14.3g}"
                f"{speedup:>8.1f}x"
            )

        # Decode + correlation, for context: scoring runs on the 50 k
        # reference grid and is memory-bound, so the end-to-end gain is
        # smaller than the reconstruction-stage gain.
        loop_t, loop_corrs = _best_of(
            lambda: [
                aligned_correlation_percent(recon, ref)
                for recon, ref in zip(run_loop(), references)
            ],
            args.repeats,
        )
        batch_t, batch_corrs = _best_of(
            lambda: aligned_correlation_percent_batch(run_batched(), references),
            args.repeats,
        )
        if not np.array_equal(np.asarray(loop_corrs), batch_corrs):
            raise AssertionError("batched correlations diverged from the loop")
        record_rows.append(
            {
                "name": f"{scheme}:decode+correlate batched",
                "time_ms": batch_t * 1e3,
                "throughput": args.signals / batch_t,
                "speedup": loop_t / batch_t,
            }
        )
        print(
            f"with correlation: loop {loop_t * 1e3:.1f} ms, "
            f"batched {batch_t * 1e3:.1f} ms ({loop_t / batch_t:.1f}x)"
        )
    _record_bench(
        args,
        "rx",
        f"{schemes[-1]} batched-vs-loop reconstruct speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "chunk": args.chunk,
            "repeats": args.repeats,
            "schemes": list(schemes),
        },
        spec_keys=_spec_keys(schemes),
    )
    return 0


def _bench_sweep(args: argparse.Namespace) -> int:
    """Sweep throughput: serial vs thread vs process-sharded dataset sweep."""
    import numpy as np

    from .api import Experiment, ExperimentSpec
    from .runtime.executors import BACKENDS, default_jobs
    from .signals.dataset import DatasetSpec

    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    jobs = args.jobs if args.jobs is not None else default_jobs()
    schemes = ("atc", "datc") if args.scheme == "both" else (args.scheme,)
    record_rows: "list[dict]" = []
    headline = 1.0
    print(
        f"sweep throughput: {args.signals} patterns x {args.duration:g} s "
        f"dataset sweep, jobs={jobs}, best of {args.repeats}"
    )
    header = (
        f"{'backend':<22}{'time (ms)':>11}{'patterns/s':>14}{'speedup':>9}"
        f"{'identical':>11}"
    )
    for scheme in schemes:
        experiment = Experiment(ExperimentSpec.for_scheme(scheme))
        print(f"\n[{scheme}]\n{header}\n" + "-" * len(header))
        base_t, base = None, None
        for backend in BACKENDS:
            t, result = _best_of(
                lambda b=backend: experiment.dataset_sweep(
                    dataset, jobs=jobs, backend=b
                ),
                args.repeats,
            )
            if base is None:
                base_t, base = t, result
                identical = "baseline"
            else:
                same = np.array_equal(
                    result.correlations_pct, base.correlations_pct
                ) and np.array_equal(result.n_events, base.n_events)
                if not same:
                    raise AssertionError(
                        f"{backend} sweep diverged from the serial results"
                    )
                identical = "yes"
            speedup = base_t / t
            if backend != "serial":
                headline = max(headline, speedup)
            record_rows.append(
                {
                    "name": f"{scheme}:{backend}",
                    "time_ms": t * 1e3,
                    "throughput": args.signals / t,
                    "speedup": speedup,
                }
            )
            print(
                f"{backend:<22}{t * 1e3:>11.1f}{args.signals / t:>14.3g}"
                f"{speedup:>8.1f}x{identical:>11}"
            )
    _record_bench(
        args,
        "sweep",
        "best sharded-vs-serial sweep speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "jobs": jobs,
            "repeats": args.repeats,
            "schemes": list(schemes),
        },
        spec_keys=_spec_keys(schemes),
    )
    return 0


def _bench_cache(args: argparse.Namespace) -> int:
    """Cache throughput: cold vs warm dataset sweep through a ResultStore."""
    import shutil
    import tempfile

    from .api import Experiment, ExperimentSpec
    from .runtime.store import ResultStore
    from .signals.dataset import DatasetSpec

    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    root = args.cache_dir or tempfile.mkdtemp(prefix="repro-bench-cache-")
    cleanup = args.cache_dir is None
    schemes = ("atc", "datc") if args.scheme == "both" else (args.scheme,)
    record_rows: "list[dict]" = []
    headline = 1.0
    print(
        f"cache throughput: {args.signals} patterns x {args.duration:g} s "
        f"dataset sweep, store at {root}"
    )
    header = (
        f"{'path':<22}{'time (ms)':>11}{'patterns/s':>14}{'speedup':>9}"
        f"{'identical':>11}"
    )
    try:
        for scheme in schemes:
            store = ResultStore(root)
            experiment = Experiment(
                ExperimentSpec.for_scheme(scheme), store=store
            )
            print(f"\n[{scheme}]\n{header}\n" + "-" * len(header))
            t0 = perf_counter()
            cold = experiment.dataset_sweep(dataset)
            t_cold = perf_counter() - t0
            print(
                f"{'cold (evaluate+put)':<22}{t_cold * 1e3:>11.1f}"
                f"{args.signals / t_cold:>14.3g}{1.0:>8.1f}x"
                f"{'baseline':>11}"
            )
            t_warm, warm = _best_of(
                lambda: experiment.dataset_sweep(dataset), args.repeats
            )
            same = np.array_equal(
                warm.correlations_pct, cold.correlations_pct
            ) and np.array_equal(warm.n_events, cold.n_events)
            if not same:
                raise AssertionError("warm sweep diverged from the cold run")
            headline = t_cold / t_warm
            record_rows.extend(
                [
                    {
                        "name": f"{scheme}:cold (evaluate+put)",
                        "time_ms": t_cold * 1e3,
                        "throughput": args.signals / t_cold,
                        "speedup": 1.0,
                    },
                    {
                        "name": f"{scheme}:warm (store hits)",
                        "time_ms": t_warm * 1e3,
                        "throughput": args.signals / t_warm,
                        "speedup": headline,
                    },
                ]
            )
            print(
                f"{'warm (store hits)':<22}{t_warm * 1e3:>11.1f}"
                f"{args.signals / t_warm:>14.3g}{t_cold / t_warm:>8.1f}x"
                f"{'yes':>11}"
            )
            print(
                f"store: {store.stats()['hits']} hits / "
                f"{store.stats()['misses']} misses / "
                f"{store.stats()['stores']} stores"
            )
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
    _record_bench(
        args,
        "cache",
        f"{schemes[-1]} warm-vs-cold sweep speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "repeats": args.repeats,
            "schemes": list(schemes),
        },
        spec_keys=_spec_keys(schemes),
    )
    return 0


def _bench_link(args: argparse.Namespace) -> int:
    """Link throughput: per-stream loop demod vs vectorised vs batched."""
    from .core.config import ATCConfig, DATCConfig
    from .core.encoders import encode_batch
    from .signals.dataset import DatasetSpec
    from .uwb.channel import UWBChannel
    from .uwb.link import LinkConfig, _link_result, simulate_link, simulate_link_batch
    from .uwb.modulation import (
        _ook_demodulate_loop,
        _ppm_demodulate_loop,
        ook_modulate,
        ppm_modulate,
    )

    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    patterns = [dataset.pattern(i) for i in range(args.signals)]
    fs = patterns[0].fs
    signals = np.stack([p.emg for p in patterns])

    schemes = ("atc", "datc") if args.scheme == "both" else (args.scheme,)
    record_rows: "list[dict]" = []
    headline = 1.0
    link_cfg = LinkConfig()
    modulate = ook_modulate if link_cfg.modulation == "ook" else ppm_modulate
    demod_loop = (
        _ook_demodulate_loop if link_cfg.modulation == "ook" else _ppm_demodulate_loop
    )
    print(
        f"link throughput: {args.signals} streams x {args.duration:g} s, "
        f"{link_cfg.modulation.upper()} @ {link_cfg.symbol_period_s:g} s/slot, "
        f"ideal channel, best of {args.repeats}"
    )
    header = f"{'path':<22}{'time (ms)':>11}{'streams/s':>14}{'speedup':>9}"
    ideal = UWBChannel()
    for scheme in schemes:
        config = ATCConfig() if scheme == "atc" else DATCConfig()
        streams = [s for s, _ in encode_batch(signals, fs, config)]

        # All three rows do the same work (modulate, ideal-channel
        # transmit, demodulate, match/score); only the demodulation and
        # batching strategy differs.
        def run_loop() -> "list":
            out = []
            for s in streams:
                bits = s.symbols_per_event - 1
                train = modulate(s, link_cfg.symbol_period_s, bits)
                rx = demod_loop(
                    ideal.transmit(train), s.duration_s,
                    link_cfg.symbol_period_s, bits, clock_hz=s.clock_hz,
                )
                out.append(_link_result(s, rx, train, link_cfg, ideal))
            return [r.rx_stream for r in out]

        def run_vectorised() -> "list":
            return [simulate_link(s, link_cfg).rx_stream for s in streams]

        def run_batched() -> "list":
            return [r.rx_stream for r in simulate_link_batch(streams, link_cfg)]

        rows = [
            ("per-stream loop", run_loop),
            ("per-stream vectorised", run_vectorised),
            ("batched", run_batched),
        ]
        print(f"\n[{scheme}]\n{header}\n" + "-" * len(header))
        base_t, base_out = None, None
        for name, fn in rows:
            t, out = _best_of(fn, args.repeats)
            if base_t is None:
                base_t, base_out = t, out
            elif not all(
                np.array_equal(r.times, b.times)
                and (
                    (r.levels is None and b.levels is None)
                    or np.array_equal(r.levels, b.levels)
                )
                for r, b in zip(out, base_out)
            ):
                raise AssertionError(f"{name} demodulation diverged from the loop")
            speedup = base_t / t
            if name == "batched":
                headline = speedup
            record_rows.append(
                {
                    "name": f"{scheme}:{name}",
                    "time_ms": t * 1e3,
                    "throughput": args.signals / t,
                    "speedup": speedup,
                }
            )
            print(
                f"{name:<22}{t * 1e3:>11.1f}{args.signals / t:>14.3g}"
                f"{speedup:>8.1f}x"
            )
    _record_bench(
        args,
        "link",
        f"{schemes[-1]} batched-vs-loop link speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "repeats": args.repeats,
            "schemes": list(schemes),
            "modulation": link_cfg.modulation,
        },
        spec_keys=_spec_keys(schemes),
    )
    return 0


def _push_percentiles(
    push_s, warmup: int = 1
) -> "tuple[float, float, float | None]":
    """Per-push latency percentiles in ms, warmup pushes excluded.

    The first push of a run pays one-off costs — allocator growth, lazy
    imports, branch-predictor and cache warmup — that say nothing about
    steady-state latency and used to swing recorded p99 by an order of
    magnitude between runs.
    Returns ``(p50_ms, p99_ms, warmup_ms)`` where ``warmup_ms`` is the
    slowest excluded push (reported separately, not hidden); when there
    are too few pushes to exclude any, all of them count and
    ``warmup_ms`` is ``None``.
    """
    times = np.asarray(push_s, dtype=float)
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if times.size > warmup:
        steady, excluded = times[warmup:], times[:warmup]
    else:
        steady, excluded = times, times[:0]
    warmup_ms = float(excluded.max()) * 1e3 if excluded.size else None
    p50 = float(np.percentile(steady, 50)) * 1e3
    p99 = float(np.percentile(steady, 99)) * 1e3
    return p50, p99, warmup_ms


def _bench_sessions(args: argparse.Namespace) -> int:
    """Multi-session runtime: SessionBatch vs a scalar per-session loop.

    Streams the same chunk sequences through (a) one
    :class:`~repro.runtime.sessions.SessionBatch` advancing all sessions
    per ``push_many`` and (b) a scalar ``StreamingEncoder`` /
    ``StreamingDecoder`` pair per session, asserts the envelopes are
    bit-identical, and records sessions/sec plus per-push p50/p99
    latency at each session count.  When the ``SESSIONS_SPEEDUP_MIN``
    env var is set, exits 1 unless the headline batch-vs-scalar speedup
    meets it (the CI gate; ``benchmarks/test_bench_sessions_throughput``
    applies the full >=3x bar on multi-core boxes).
    """
    from .core.config import ATCConfig, DATCConfig
    from .core.encoders import ATCEncoder, DATCEncoder
    from .runtime.sessions import SessionBatch, SessionSpec
    from .rx.decoders import StreamingDecoder
    from .signals.dataset import DatasetSpec

    scheme = "datc" if args.scheme == "both" else args.scheme
    counts = sorted(
        {int(c) for c in args.session_counts.split(",") if c.strip()}
    )
    if not counts or min(counts) < 1:
        raise SystemExit("--session-counts needs positive integers")
    n_base = args.signals
    dataset = DatasetSpec(
        n_patterns=n_base, duration_s=args.duration, seed=2015
    )
    patterns = [dataset.pattern(i) for i in range(n_base)]
    fs = patterns[0].fs
    base = [p.emg for p in patterns]
    config = DATCConfig() if scheme == "datc" else ATCConfig()
    spec = SessionSpec(scheme=scheme, fs=fs, config=config)
    encoder_cls = ATCEncoder if scheme == "atc" else DATCEncoder
    chunk = args.chunk
    starts = list(range(0, base[0].size, chunk))
    print(
        f"session tier: {scheme}, {args.duration:g} s @ {fs:g} Hz per "
        f"session, {chunk}-sample chunks, best of {args.repeats}"
    )

    def run_batch(count: int):
        sigs = [base[i % n_base] for i in range(count)]
        batch = SessionBatch()
        sids = [batch.create(spec) for _ in range(count)]
        push_s = []
        for s in starts:
            t0 = perf_counter()
            batch.push_many(
                {sid: sig[s : s + chunk] for sid, sig in zip(sids, sigs)}
            )
            push_s.append(perf_counter() - t0)
        return [batch.finalize(sid).envelope for sid in sids], push_s

    def run_scalar(count: int):
        envs = []
        for i in range(count):
            sig = base[i % n_base]
            enc = encoder_cls(fs, config, rectify=True)
            dec = StreamingDecoder(
                scheme=scheme,
                config=config,
                fs_out=spec.fs_out,
                window_s=spec.window_s,
            )
            for s in starts:
                dec.push(enc.push(sig[s : s + chunk]))
            enc.finalize()
            dec.push(enc.drain())
            dec.finalize()
            envs.append(dec.envelope)
        return envs

    record_rows: "list[dict]" = []
    headline = None
    header = (
        f"{'path':<18}{'time (ms)':>11}{'sess-s/s':>11}"
        f"{'p50 (ms)':>10}{'p99 (ms)':>10}{'speedup':>9}"
    )
    print(f"\n{header}\n" + "-" * len(header))
    for count in counts:
        t_sc, env_sc = _best_of(lambda c=count: run_scalar(c), args.repeats)
        t_ba, (env_ba, push_s) = _best_of(
            lambda c=count: run_batch(c), args.repeats
        )
        for a, b in zip(env_sc, env_ba):
            if not np.array_equal(a, b):
                raise AssertionError(
                    "SessionBatch envelope diverged from scalar streaming "
                    "(must be bit-exact)"
                )
        speedup = t_sc / t_ba
        p50, p99, warmup_ms = _push_percentiles(push_s)
        session_seconds = count * args.duration
        for name, t in ((f"scalar-{count}", t_sc), (f"batch-{count}", t_ba)):
            is_batch = name.startswith("batch")
            record_rows.append(
                {
                    "name": name,
                    "time_ms": t * 1e3,
                    "throughput": session_seconds / t,
                    "speedup": t_sc / t,
                    "push_p50_ms": p50 if is_batch else None,
                    "push_p99_ms": p99 if is_batch else None,
                    "push_warmup_ms": warmup_ms if is_batch else None,
                }
            )
            print(
                f"{name:<18}{t * 1e3:>11.1f}{session_seconds / t:>11.3g}"
                f"{(f'{p50:.2f}' if is_batch else '-'):>10}"
                f"{(f'{p99:.2f}' if is_batch else '-'):>10}"
                f"{t_sc / t:>8.1f}x"
            )
        # The gate count: the largest benched count up to 256, or the
        # smallest overall when every count exceeds it.
        if headline is None or count <= 256:
            headline = speedup
    print("batch envelopes bit-identical to scalar streaming: yes")
    _record_bench(
        args,
        "sessions",
        "batch-vs-scalar speedup at the gate count",
        headline,
        record_rows,
        params={
            "counts": counts,
            "signals": args.signals,
            "duration_s": args.duration,
            "chunk": chunk,
            "repeats": args.repeats,
            "scheme": scheme,
        },
        spec_keys=_spec_keys((scheme,)),
    )
    floor_txt = os.environ.get("SESSIONS_SPEEDUP_MIN")
    if floor_txt is not None:
        floor = float(floor_txt)
        if headline < floor:
            print(
                f"FAIL: batch-vs-scalar speedup {headline:.2f}x is below "
                f"SESSIONS_SPEEDUP_MIN={floor:g}"
            )
            return 1
        print(
            f"speedup {headline:.2f}x meets SESSIONS_SPEEDUP_MIN={floor:g}"
        )
    return 0


def _spawn_repro(args: "list[str]"):
    """Launch ``python -m repro <args>`` as a subprocess.

    The child gets this process's ``repro`` package on ``PYTHONPATH`` so
    the benches and drain checks work from a source checkout without
    installation; stdout and stderr are captured together as text.
    """
    import subprocess
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = (
        src + os.pathsep + child_env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_ready(
    children, what: str, *, address: bool = False
) -> "list[tuple[int, str | None, int | None]]":
    """Block until every ``(proc, ready_file)`` child wrote its ready file.

    The ``--ready-file`` handshake: the first line is the child's pid;
    servers (``serve``, ``dispatch``; pass ``address=True``) add a second
    line with their resolved bind address (``--port 0`` picks a free
    port, so the parent learns it here).  Returns ``(pid, host, port)``
    per child, with ``host``/``port`` None without ``address``.  A child
    that exits first, or a handshake slower than two minutes, raises
    ``RuntimeError`` naming ``what``.
    """
    import time as _time

    want = 2 if address else 1
    ready: "dict[int, tuple[int, str | None, int | None]]" = {}
    deadline = _time.monotonic() + 120.0
    while True:
        for i, (proc, ready_file) in enumerate(children):
            if i in ready:
                continue
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{what} exited before becoming ready "
                    f"(code {proc.returncode}):\n{proc.stdout.read()}"
                )
            if os.path.exists(ready_file):
                with open(ready_file) as fh:
                    lines = fh.read().splitlines()
                if len(lines) >= want:
                    host, port = lines[1].split() if address else (None, None)
                    ready[i] = (
                        int(lines[0]),
                        host,
                        None if port is None else int(port),
                    )
        if len(ready) == len(children):
            return [ready[i] for i in range(len(children))]
        if _time.monotonic() > deadline:
            raise RuntimeError(f"{what} never became ready")
        _time.sleep(0.01)


def _bench_serve(args: argparse.Namespace) -> int:
    """Socket-boundary serving tier: ``SessionServer`` vs scalar streaming.

    Streams the same chunk sequences through (a) a live
    :class:`~repro.runtime.server.SessionServer` — every session crossing
    the TCP loopback via :class:`~repro.runtime.client.StreamingClient`,
    multiplexed over ``--serve-connections`` pipelined connections — and
    (b) the scalar per-session ``StreamingEncoder``/``StreamingDecoder``
    loop, asserts every served envelope is bit-identical to its scalar
    one, and records sessions/sec plus per-push round-trip p50/p99 (one
    probe session pushes sequentially under full load; warmup excluded
    via ``_push_percentiles``).  Also runs a real subprocess SIGTERM
    drain: ``repro serve`` must finalize every in-flight session and
    exit 0 with zero unfinalized.  When the ``SERVE_SPEEDUP_MIN`` env
    var is set, exits 1 unless the headline served-vs-scalar speedup at
    the largest count meets it.
    """
    import asyncio
    import shutil
    import signal as _signal
    import tempfile

    from .core.config import ATCConfig, DATCConfig
    from .core.encoders import ATCEncoder, DATCEncoder
    from .runtime.client import StreamingClient
    from .runtime.server import SessionServer
    from .runtime.sessions import SessionSpec
    from .rx.decoders import StreamingDecoder
    from .signals.dataset import DatasetSpec

    scheme = "datc" if args.scheme == "both" else args.scheme
    counts = sorted(
        {int(c) for c in args.serve_sessions.split(",") if c.strip()}
    )
    if not counts or min(counts) < 1:
        raise SystemExit("--serve-sessions needs positive integers")
    n_base = args.signals
    dataset = DatasetSpec(
        n_patterns=n_base, duration_s=args.duration, seed=2015
    )
    patterns = [dataset.pattern(i) for i in range(n_base)]
    fs = patterns[0].fs
    base = [p.emg for p in patterns]
    config = DATCConfig() if scheme == "datc" else ATCConfig()
    spec = SessionSpec(scheme=scheme, fs=fs, config=config)
    encoder_cls = ATCEncoder if scheme == "atc" else DATCEncoder
    chunk = args.chunk
    starts = list(range(0, base[0].size, chunk))
    print(
        f"serve tier: {scheme}, {args.duration:g} s @ {fs:g} Hz per "
        f"session, {chunk}-sample chunks over TCP loopback "
        f"({args.serve_connections} connections), best of {args.repeats}"
    )

    def run_scalar(count: int):
        envs = []
        for i in range(count):
            sig = base[i % n_base]
            enc = encoder_cls(fs, config, rectify=True)
            dec = StreamingDecoder(
                scheme=scheme,
                config=config,
                fs_out=spec.fs_out,
                window_s=spec.window_s,
            )
            for s in starts:
                dec.push(enc.push(sig[s : s + chunk]))
            enc.finalize()
            dec.push(enc.drain())
            dec.finalize()
            envs.append(dec.envelope)
        return envs

    async def run_served(count: int):
        server = SessionServer(
            max_sessions=count, max_pending=len(starts) + 1
        )
        await server.start()
        host, port = server.address
        n_conns = max(1, min(args.serve_connections, count))
        owned = [list(range(ci, count, n_conns)) for ci in range(n_conns)]
        push_s: "list[float]" = []
        envelopes: "list" = [None] * count

        async def drive(conn_index: int, indices: "list[int]") -> None:
            client = await StreamingClient.connect(
                host, port, name=f"bench-{conn_index}"
            )
            sids = dict(
                zip(indices, await client.create_many(spec, len(indices)))
            )
            # One probe session pushes sequentially (timed round trips
            # under full load); the rest ride pipelined waves.
            probe = indices[0] if conn_index == 0 else None
            for s in starts:
                if probe is not None:
                    t0 = perf_counter()
                    await client.push(
                        sids[probe], base[probe % n_base][s : s + chunk]
                    )
                    push_s.append(perf_counter() - t0)
                wave = {
                    sids[i]: base[i % n_base][s : s + chunk]
                    for i in indices
                    if i != probe
                }
                if wave:
                    await client.push_all(wave)
            for i in indices:
                envelopes[i] = (await client.finalize(sids[i])).envelope
            await client.close()

        t0 = perf_counter()
        await asyncio.gather(
            *(drive(ci, idx) for ci, idx in enumerate(owned) if idx)
        )
        elapsed = perf_counter() - t0
        await server.aclose()
        return elapsed, envelopes, push_s

    record_rows: "list[dict]" = []
    headline = None
    header = (
        f"{'path':<18}{'time (ms)':>11}{'sess-s/s':>11}{'sess/s':>9}"
        f"{'p50 (ms)':>10}{'p99 (ms)':>10}{'speedup':>9}"
    )
    print(f"\n{header}\n" + "-" * len(header))
    for count in counts:
        t_sc, env_sc = _best_of(lambda c=count: run_scalar(c), args.repeats)
        t_sv = float("inf")
        env_sv: "list" = []
        push_s: "list[float]" = []
        for _ in range(args.repeats):
            elapsed, env_sv, push_s = asyncio.run(run_served(count))
            t_sv = min(t_sv, elapsed)
        for a, b in zip(env_sc, env_sv):
            if b is None or not np.array_equal(a, b):
                raise AssertionError(
                    "served envelope diverged from the scalar one-shot "
                    "path (must be bit-exact through the socket)"
                )
        speedup = t_sc / t_sv
        p50, p99, warmup_ms = _push_percentiles(push_s)
        session_seconds = count * args.duration
        for name, t in ((f"scalar-{count}", t_sc), (f"served-{count}", t_sv)):
            is_served = name.startswith("served")
            record_rows.append(
                {
                    "name": name,
                    "time_ms": t * 1e3,
                    "throughput": session_seconds / t,
                    "sessions_per_s": count / t,
                    "speedup": t_sc / t,
                    "push_p50_ms": p50 if is_served else None,
                    "push_p99_ms": p99 if is_served else None,
                    "push_warmup_ms": warmup_ms if is_served else None,
                }
            )
            print(
                f"{name:<18}{t * 1e3:>11.1f}{session_seconds / t:>11.3g}"
                f"{count / t:>9.3g}"
                f"{(f'{p50:.2f}' if is_served else '-'):>10}"
                f"{(f'{p99:.2f}' if is_served else '-'):>10}"
                f"{t_sc / t:>8.1f}x"
            )
        # Gate at the largest count: batching amortizes with scale, and
        # the acceptance bar is explicitly about 1k+ concurrent sessions.
        headline = speedup
    print("served envelopes bit-identical to scalar streaming: yes")

    # Honest SIGTERM drain: a real subprocess with in-flight sessions
    # must finalize them all, notify the client, and exit 0.
    n_drain = 4
    work = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        ready = os.path.join(work, "ready")
        proc = _spawn_repro(["serve", "--port", "0", "--ready-file", ready])
        try:
            [(_pid, host, port)] = _wait_ready(
                [(proc, ready)], "serve", address=True
            )

            async def drain_leg():
                client = await StreamingClient.connect(
                    host, port, name="drain"
                )
                sids = [await client.create(spec) for _ in range(n_drain)]
                for sid in sids:
                    await client.push(sid, base[0][: 2 * chunk])
                proc.send_signal(_signal.SIGTERM)
                drained = []
                while len(drained) < n_drain:
                    notice = await client.wait_event(timeout=30.0)
                    if notice.get("event") == "drained":
                        drained.append(notice)
                client.abort()
                return drained

            drained = asyncio.run(drain_leg())
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        bad = [n for n in drained if not (n.get("ok") and n.get("envelope"))]
        if bad or proc.returncode != 0 or "unfinalized 0" not in out:
            raise RuntimeError(
                f"SIGTERM drain failed: exit {proc.returncode}, "
                f"{len(bad)} bad drain notice(s), output:\n{out}"
            )
        print(
            f"SIGTERM drain: exit 0, {n_drain}/{n_drain} in-flight "
            f"sessions finalized, unfinalized 0"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _record_bench(
        args,
        "serve",
        "served-vs-scalar speedup at the gate count",
        headline,
        record_rows,
        params={
            "counts": counts,
            "connections": args.serve_connections,
            "signals": n_base,
            "duration_s": args.duration,
            "chunk": chunk,
            "repeats": args.repeats,
            "scheme": scheme,
        },
        spec_keys=_spec_keys((scheme,)),
        notes="drain: subprocess SIGTERM exit 0, unfinalized 0",
    )
    floor_txt = os.environ.get("SERVE_SPEEDUP_MIN")
    if floor_txt is not None:
        floor = float(floor_txt)
        if headline < floor:
            print(
                f"FAIL: served-vs-scalar speedup {headline:.2f}x is below "
                f"SERVE_SPEEDUP_MIN={floor:g}"
            )
            return 1
        print(f"speedup {headline:.2f}x meets SERVE_SPEEDUP_MIN={floor:g}")
    return 0


def _queued_sweep(spec, dataset, n_workers: int, work_root: str):
    """One queued N-worker sweep; returns (seconds, sweep result, store).

    Workers start first and idle-wait (the ``--ready-file`` handshake
    keeps interpreter/numpy start-up out of the timed region); the clock
    runs from job submission to the last worker's drained exit.  The
    finished sweep is collected with one *warm*
    ``Experiment.dataset_sweep`` over the shared store — zero
    re-evaluations, so the collected numbers are exactly what the
    workers computed.
    """
    from .api import Experiment
    from .runtime.queue import ExperimentQueue
    from .runtime.store import ResultStore

    db = os.path.join(work_root, "queue.db")
    store_root = os.path.join(work_root, "store")
    ready = [
        os.path.join(work_root, f"ready-{i}") for i in range(n_workers)
    ]
    workers = [
        _spawn_repro(
            [
                "worker", "--db", db, "--store", store_root,
                "--max-idle", "120.0", "--ready-file", path,
            ]
        )
        for path in ready
    ]
    try:
        _wait_ready(list(zip(workers, ready)), "worker")
        with ExperimentQueue(db) as queue:
            t0 = perf_counter()
            queue.submit_dataset(spec, dataset, workers_hint=n_workers)
            for proc in workers:
                proc.wait(timeout=600)
            elapsed = perf_counter() - t0
            if queue.unfinished():
                raise RuntimeError(
                    f"queue did not drain: {queue.counts()} "
                    f"(worker output: {workers[0].stdout.read()!r})"
                )
            queue.raise_first_error()
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
    store = ResultStore(store_root)
    result = Experiment(spec, store=store).dataset_sweep(dataset)
    return elapsed, result, store


def _queued_sweep_remote(spec, dataset, n_workers: int, work_root: str):
    """One dispatched N-worker sweep; returns (seconds, result, store).

    The remote-transport leg of ``bench --queue``: a ``repro dispatch``
    subprocess owns the queue db and the store, workers connect with
    ``--dispatcher host:port`` and never touch either path — the only
    shared thing is a loopback socket.  Submission goes through a
    :class:`~repro.runtime.transport.RemoteBackend` so the timed region
    exercises the full wire path; collection afterwards is one warm
    ``dataset_sweep`` over the dispatcher's (local) store root.
    """
    from .api import Experiment
    from .runtime.queue import ExperimentQueue
    from .runtime.store import ResultStore
    from .runtime.transport import RemoteBackend

    db = os.path.join(work_root, "queue.db")
    store_root = os.path.join(work_root, "store")
    dispatcher, workers = None, []
    try:
        dispatch_ready = os.path.join(work_root, "dispatch-ready")
        dispatcher = _spawn_repro(
            [
                "dispatch", "--db", db, "--store", store_root,
                "--port", "0", "--ready-file", dispatch_ready,
            ]
        )
        [(_pid, host, port)] = _wait_ready(
            [(dispatcher, dispatch_ready)], "dispatcher", address=True
        )
        address = f"{host}:{port}"
        ready = [
            os.path.join(work_root, f"ready-{i}") for i in range(n_workers)
        ]
        workers = [
            _spawn_repro(
                [
                    "worker", "--dispatcher", address,
                    "--max-idle", "120.0", "--ready-file", path,
                ]
            )
            for path in ready
        ]
        _wait_ready(list(zip(workers, ready)), "worker")
        with ExperimentQueue(RemoteBackend(address)) as queue:
            t0 = perf_counter()
            queue.submit_dataset(spec, dataset, workers_hint=n_workers)
            for proc in workers:
                proc.wait(timeout=600)
            elapsed = perf_counter() - t0
            if queue.unfinished():
                raise RuntimeError(
                    f"queue did not drain: {queue.counts()} "
                    f"(worker output: {workers[0].stdout.read()!r})"
                )
            queue.raise_first_error()
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
        if dispatcher is not None:
            if dispatcher.poll() is None:
                dispatcher.terminate()
                try:
                    dispatcher.wait(timeout=30)
                except Exception:
                    dispatcher.kill()
            dispatcher.stdout.close()
    store = ResultStore(store_root)
    result = Experiment(spec, store=store).dataset_sweep(dataset)
    return elapsed, result, store


def _bench_queue(args: argparse.Namespace) -> int:
    """Queued N-worker dataset sweep vs the serial spec path.

    Every worker count's results are asserted bit-identical to the
    serial sweep before any timing is reported.  When the
    ``QUEUE_SPEEDUP_MIN`` env var is set, exits 1 unless the 2-worker
    (or largest benched) speedup meets it — skipped with a note on
    single-core boxes, where parallel workers cannot win wall-clock.
    """
    import shutil
    import tempfile

    from .api import Experiment, ExperimentSpec
    from .signals.dataset import DatasetSpec

    scheme = "datc" if args.scheme == "both" else args.scheme
    transport = getattr(args, "transport", "file")
    sweep = _queued_sweep_remote if transport == "remote" else _queued_sweep
    label = "remote" if transport == "remote" else "queued"
    counts = sorted(
        {int(c) for c in args.queue_workers.split(",") if c.strip()}
    )
    if not counts or min(counts) < 1:
        raise SystemExit("--queue-workers needs positive integers")
    dataset = DatasetSpec(
        n_patterns=args.signals, duration_s=args.duration, seed=2015
    )
    spec = ExperimentSpec.for_scheme(scheme)
    print(
        f"queue throughput: {args.signals} patterns x {args.duration:g} s "
        f"dataset sweep [{scheme}], workers {counts}, "
        f"transport {transport}, best of {args.repeats}"
    )
    t_serial, serial = _best_of(
        lambda: Experiment(spec).dataset_sweep(dataset), args.repeats
    )
    header = (
        f"{'path':<18}{'time (ms)':>11}{'patterns/s':>13}{'speedup':>9}"
        f"{'identical':>11}"
    )
    print(f"\n{header}\n" + "-" * len(header))
    print(
        f"{'serial':<18}{t_serial * 1e3:>11.1f}"
        f"{args.signals / t_serial:>13.3g}{1.0:>8.1f}x{'baseline':>11}"
    )
    record_rows = [
        {
            "name": "serial",
            "time_ms": t_serial * 1e3,
            "throughput": args.signals / t_serial,
            "speedup": 1.0,
        }
    ]
    gate_count = max((c for c in counts if c <= 2), default=min(counts))
    headline = 1.0
    for count in counts:
        best = float("inf")
        for _ in range(args.repeats):
            work_root = tempfile.mkdtemp(prefix="repro-bench-queue-")
            try:
                elapsed, result, _store = sweep(
                    spec, dataset, count, work_root
                )
            finally:
                shutil.rmtree(work_root, ignore_errors=True)
            best = min(best, elapsed)
        same = np.array_equal(
            result.correlations_pct, serial.correlations_pct
        ) and np.array_equal(result.n_events, serial.n_events)
        if not same:
            raise AssertionError(
                f"{count}-worker {label} sweep diverged from the serial "
                "results (must be bit-identical)"
            )
        speedup = t_serial / best
        if count == gate_count:
            headline = speedup
        record_rows.append(
            {
                "name": f"{label}-{count}",
                "time_ms": best * 1e3,
                "throughput": args.signals / best,
                "speedup": speedup,
            }
        )
        print(
            f"{f'{label}-{count}':<18}{best * 1e3:>11.1f}"
            f"{args.signals / best:>13.3g}{speedup:>8.1f}x{'yes':>11}"
        )
    print(f"{label} sweeps bit-identical to serial: yes")
    _record_bench(
        args,
        "queue",
        f"{gate_count}-worker-vs-serial queued sweep speedup",
        headline,
        record_rows,
        params={
            "signals": args.signals,
            "duration_s": args.duration,
            "workers": counts,
            "repeats": args.repeats,
            "scheme": scheme,
            "transport": transport,
        },
        spec_keys=_spec_keys((scheme,)),
    )
    floor_txt = os.environ.get("QUEUE_SPEEDUP_MIN")
    if floor_txt is not None:
        floor = float(floor_txt)
        cores = os.cpu_count() or 1
        if cores < 2:
            print(
                f"skipping QUEUE_SPEEDUP_MIN={floor:g} gate: "
                f"{cores} core(s) — parallel workers cannot win wall-clock"
            )
        elif headline < floor:
            print(
                f"FAIL: {gate_count}-worker speedup {headline:.2f}x is "
                f"below QUEUE_SPEEDUP_MIN={floor:g}"
            )
            return 1
        else:
            print(
                f"speedup {headline:.2f}x meets QUEUE_SPEEDUP_MIN={floor:g}"
            )
    return 0


def _bench_report(args: argparse.Namespace) -> int:
    """Render the perf trajectory; fail on a headline regression.

    Strict about its inputs: a missing trajectory (nothing benched), an
    empty file, or a corrupt one is a pointed one-line error and exit 1,
    not a traceback or a silently thin report.
    """
    from .analysis.telemetry import (
        TelemetryError,
        bench_dir,
        load_trajectories,
        regression_pct,
        render_report,
    )

    directory = getattr(args, "bench_out", None)
    try:
        trajectories = load_trajectories(directory, strict=True)
    except TelemetryError as exc:
        print(f"bench --report: {exc}")
        return 1
    if not trajectories:
        print(
            f"bench --report: no BENCH_*.json records under "
            f"{bench_dir(directory)} (run a bench stage first)"
        )
        return 1
    allowed = regression_pct()
    table, regressions = render_report(trajectories, allowed)
    print(table)
    if regressions:
        print(f"\nREGRESSION ({len(regressions)}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nno headline regressions (allowed drop {allowed:g}%)")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from .core.config import DATCConfig
    from .core.datc import datc_encode
    from .signals.dataset import default_dataset
    from .signals.io import export_events_csv, save_event_stream

    pattern = default_dataset().pattern(args.pattern)
    stream, _ = datc_encode(pattern.emg, pattern.fs, DATCConfig())
    if args.output.endswith(".csv"):
        export_events_csv(args.output, stream)
    else:
        save_event_stream(args.output, stream)
    print(
        f"pattern {args.pattern}: {stream.n_events} events "
        f"({stream.n_symbols} symbols) -> {args.output}"
    )
    return 0


def _cmd_queue_submit(args: argparse.Namespace) -> int:
    from .runtime.queue import ExperimentQueue
    from .signals.dataset import DatasetSpec

    spec = _load_spec(args)
    dataset = DatasetSpec(
        n_patterns=args.patterns, duration_s=args.duration, seed=args.seed
    )
    with ExperimentQueue(args.db) as queue:
        n = queue.submit_dataset(
            spec,
            dataset,
            shard_size=args.shard_size,
            workers_hint=args.workers_hint,
            max_attempts=args.max_attempts,
        )
        counts = queue.counts()
    total = sum(counts.values())
    print(
        f"submitted {n} new shard job(s) for spec {spec.key()[:16]} "
        f"({args.patterns} patterns) -> {args.db} ({total} total)"
    )
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    from .runtime.queue import ExperimentQueue, STATUSES

    with ExperimentQueue(args.db) as queue:
        counts = queue.counts()
        errors = queue.errors()
    total = sum(counts.values())
    body = ", ".join(f"{status} {counts[status]}" for status in STATUSES)
    print(f"{args.db}: {total} job(s) — {body}")
    for row in errors:
        first_line = (row["error"] or "").splitlines()[0] if row["error"] else ""
        print(
            f"  quarantined {row['fingerprint'][:12]} "
            f"(attempt {row['attempt']}/{row['max_attempts']}): {first_line}"
        )
    if args.strict and errors:
        print(f"strict: {len(errors)} quarantined job(s)")
        return 1
    return 0


def _cmd_queue_reset(args: argparse.Namespace) -> int:
    from .runtime.queue import ExperimentQueue

    with ExperimentQueue(args.db) as queue:
        n = queue.reset()
    print(f"re-opened {n} quarantined job(s) in {args.db}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal as _signal
    import threading as _threading

    from .runtime.faults import FaultPlan
    from .runtime.queue import run_worker

    if args.dispatcher is None:
        if args.db is None or args.store is None:
            raise SystemExit(
                "worker needs --db and --store (shared mount) "
                "or --dispatcher HOST:PORT (no shared mount)"
            )
    elif args.db is not None or args.store is not None:
        raise SystemExit(
            "--dispatcher replaces --db/--store; pass one form, not both"
        )
    if args.faults:
        faults = FaultPlan.from_json(args.faults)
    else:
        faults = FaultPlan.from_env()
    stop_event = _threading.Event()
    try:
        # SIGTERM -> graceful drain: finish the in-flight shard, release
        # unstarted leases, exit 0.  Installable only from the main
        # thread; in-process test callers just lose the handler.
        _signal.signal(_signal.SIGTERM, lambda signum, frame: stop_event.set())
    except ValueError:
        pass
    if args.ready_file:
        # The handshake the bench and the recovery tests key off: the
        # interpreter is up, imports are done, the loop starts now.
        with open(args.ready_file, "w") as fh:
            fh.write(f"{os.getpid()}\n")
    max_idle_s = None if args.max_idle < 0 else args.max_idle
    stats = run_worker(
        args.db,
        args.store,
        worker_id=args.worker_id,
        lease_s=args.lease,
        poll_s=args.poll,
        max_idle_s=max_idle_s,
        max_jobs=args.max_jobs,
        heartbeat_s=args.heartbeat,
        faults=faults,
        should_stop=stop_event.is_set,
        log=print if args.verbose else None,
        dispatcher=args.dispatcher,
    )
    print(
        f"worker {stats.worker_id}: claimed {stats.claimed}, "
        f"completed {stats.completed}, requeued {stats.requeued}, "
        f"quarantined {stats.quarantined}, lost {stats.lost}, "
        f"released {stats.released}, evaluated {stats.evaluated}"
    )
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    """Run the queue dispatcher until SIGTERM/SIGINT.

    One dispatcher owns the jobs database and the result store; workers
    started with ``repro worker --dispatcher HOST:PORT`` need neither
    path — every queue verb and every result blob travels the socket
    (see docs/DISPATCH.md).  The process is disposable: all durable
    state is on disk, so SIGKILL + restart on the same paths simply
    resumes the sweep (workers reconnect through channel backoff and
    expired leases are reclaimed by the next claim).
    """
    import asyncio
    import signal as _signal

    from .runtime.dispatcher import DispatcherServer

    async def _run():
        server = DispatcherServer(
            args.db, args.store, host=args.host, port=args.port
        )
        await server.start()
        host, port = server.address
        print(
            f"dispatching on {host}:{port} (db {args.db}, store "
            f"{args.store}); SIGTERM stops",
            flush=True,
        )
        if args.ready_file:
            # Same handshake as `repro serve --ready-file`: pid, then
            # the resolved bind address (--port 0 picks a free port).
            with open(args.ready_file, "w") as fh:
                fh.write(f"{os.getpid()}\n{host} {port}\n")
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread / platform without signal support
        await server.serve_forever()
        return server

    server = asyncio.run(_run())
    print(
        f"dispatcher stopped: {server.connections} connection(s), "
        f"{server.requests} request(s) served"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on streaming session server until drained.

    SIGTERM (and SIGINT) trigger the graceful drain: stop accepting,
    flush every queued chunk, finalize every in-flight session and send
    its owner the final envelope, then exit 0 — the serving counterpart
    of ``repro worker``'s drain contract.  Exit 1 only if sessions were
    somehow left unfinalized (that line, ``unfinalized N``, is what the
    bench and CI assert on).
    """
    import asyncio
    import signal as _signal

    from .runtime.server import SessionServer

    async def _run():
        server = SessionServer(
            args.host,
            args.port,
            max_sessions=args.max_sessions,
            max_pending=args.max_pending,
            max_total_pending=args.max_total_pending,
            silence_timeout_s=args.silence_timeout,
            tick_s=args.tick,
        )
        await server.start()
        host, port = server.address
        print(
            f"serving on {host}:{port} (max_sessions {args.max_sessions}, "
            f"max_pending {args.max_pending}); SIGTERM drains gracefully",
            flush=True,
        )
        if args.ready_file:
            # Same handshake as `repro worker --ready-file`, plus the
            # resolved bind address (--port 0 picks a free port).
            with open(args.ready_file, "w") as fh:
                fh.write(f"{os.getpid()}\n{host} {port}\n")
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread / platform without signal support
        stats = await server.serve_forever()
        return server, stats

    server, stats = asyncio.run(_run())
    counters = stats.to_dict()
    print(
        "drained: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )
    print(f"unfinalized {server.n_sessions}")
    return 0 if server.n_sessions == 0 else 1


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    from .runtime.store import ResultStore

    store = ResultStore(args.root)
    report = store.fsck(repair=not args.no_repair)
    print(f"{store.root}: {report.summary()}")
    for path, reason in report.corrupt:
        verb = "deleted" if report.repaired else "corrupt"
        print(f"  {verb}: {path}: {reason}")
    return 1 if report.damaged else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="D-ATC (DATE 2015) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="Fig. 2 concept demo").set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="Fig. 3 single-pattern comparison")
    p.add_argument("--pattern", type=int, default=22)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fig5", help="Fig. 5 dataset sweep")
    p.add_argument("--patterns", type=int, default=None, help="limit pattern count")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default=None,
        help="execution backend for the sweep workers",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result store; a repeated run skips cached patterns",
    )
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser(
        "run", help="evaluate one pattern under a declarative ExperimentSpec"
    )
    p.add_argument("--pattern", type=int, default=22)
    p.add_argument("--scheme", choices=("atc", "datc"), default="datc")
    p.add_argument("--spec", default=None, help="spec JSON file (overrides --scheme)")
    p.add_argument("--dump-spec", default=None, help="write the spec JSON here")
    p.add_argument("--cache-dir", default=None, help="persistent result store")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "sweep", help="generic spec-substitution sweep (or --dataset)"
    )
    p.add_argument("--pattern", type=int, default=22)
    p.add_argument("--scheme", choices=("atc", "datc"), default="datc")
    p.add_argument("--spec", default=None, help="spec JSON file (overrides --scheme)")
    p.add_argument(
        "--axis",
        default=None,
        help='spec path ("encoder.config.vth") or data axis '
        '("input.snr_db", "stream.drop_prob")',
    )
    p.add_argument(
        "--values", default=None, help="comma-separated sweep values (JSON scalars)"
    )
    p.add_argument(
        "--dataset",
        action="store_true",
        help="sweep the dataset's patterns instead of a spec axis",
    )
    p.add_argument("--patterns", type=int, default=None, help="dataset limit")
    p.add_argument("--seed", type=int, default=None, help="data-axis RNG seed")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default=None,
        help="execution backend for the sweep workers",
    )
    p.add_argument("--cache-dir", default=None, help="persistent result store")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig6", help="Fig. 6 iso-correlation comparison")
    p.add_argument("--pattern", type=int, default=22)
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("fig7", help="Fig. 7 trade-off curves")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default=None,
        help="execution backend for the sweep workers",
    )
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("symbols", help="Sec. III-B symbol accounting")
    p.add_argument("--pattern", type=int, default=22)
    p.set_defaults(func=_cmd_symbols)

    sub.add_parser("table1", help="Table I synthesis summary").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("timing", help="DTC static timing budget").set_defaults(
        func=_cmd_timing
    )

    p = sub.add_parser("verilog", help="emit synthesizable DTC Verilog")
    p.add_argument("-o", "--output", default="dtc.v", help="'-' for stdout")
    p.set_defaults(func=_cmd_verilog)

    p = sub.add_parser("vcd", help="dump a DTC waveform (VCD)")
    p.add_argument("-o", "--output", default="dtc.vcd")
    p.add_argument("--pattern", type=int, default=22)
    p.add_argument("--cycles", type=int, default=2000)
    p.set_defaults(func=_cmd_vcd)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("encode", help="encode a pattern to .npz/.csv events")
    p.add_argument("--pattern", type=int, default=22)
    p.add_argument("-o", "--output", default="events.npz")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser(
        "queue",
        help="fault-tolerant multi-worker job queue (see docs/QUEUE.md)",
    )
    qsub = p.add_subparsers(dest="action", required=True)
    q = qsub.add_parser("submit", help="shard a dataset sweep into jobs")
    q.add_argument("--db", required=True, help="shared queue database file")
    q.add_argument("--scheme", choices=("atc", "datc"), default="datc")
    q.add_argument("--spec", default=None, help="spec JSON (overrides --scheme)")
    q.add_argument("--patterns", type=_positive_int, default=16)
    q.add_argument("--duration", type=_positive_float, default=20.0)
    q.add_argument("--seed", type=int, default=2015)
    q.add_argument(
        "--shard-size", type=_positive_int, default=None,
        help="patterns per job (default: ~4 shards per hinted worker)",
    )
    q.add_argument("--workers-hint", type=_positive_int, default=4)
    q.add_argument(
        "--max-attempts", type=_positive_int, default=3,
        help="attempts before a failing job is quarantined",
    )
    q.set_defaults(func=_cmd_queue_submit)
    q = qsub.add_parser(
        "status", help="per-status job counts + quarantined failures"
    )
    q.add_argument("--db", required=True, help="shared queue database file")
    q.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any job is quarantined",
    )
    q.set_defaults(func=_cmd_queue_status)
    q = qsub.add_parser("reset", help="re-open every quarantined job")
    q.add_argument("--db", required=True, help="shared queue database file")
    q.set_defaults(func=_cmd_queue_reset)

    p = sub.add_parser(
        "worker",
        help="pull and execute queued shards until the queue drains",
    )
    p.add_argument("--db", default=None, help="shared queue database file")
    p.add_argument("--store", default=None, help="shared result store dir")
    p.add_argument(
        "--dispatcher", default=None, metavar="HOST:PORT",
        help="pull jobs and ship results over a repro dispatch server "
        "instead of --db/--store (no shared mount needed)",
    )
    p.add_argument("--worker-id", default=None, help="default: host-pid-rand")
    p.add_argument(
        "--lease", type=_positive_float, default=30.0,
        help="lease seconds; a silent worker's shard is reclaimed after this",
    )
    p.add_argument("--poll", type=_positive_float, default=0.2)
    p.add_argument(
        "--max-idle", type=float, default=0.0,
        help="seconds to wait for first jobs before giving up "
        "(0 = exit if empty, negative = wait forever)",
    )
    p.add_argument(
        "--max-jobs", type=_positive_int, default=None,
        help="exit after claiming this many jobs",
    )
    p.add_argument(
        "--heartbeat", type=_positive_float, default=None,
        help="heartbeat interval (default: lease / 4)",
    )
    p.add_argument(
        "--faults", default=None,
        help="fault-plan JSON (chaos testing; or set REPRO_FAULTS)",
    )
    p.add_argument(
        "--ready-file", default=None,
        help="write this file (holding the pid) once the loop starts",
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "dispatch",
        help="queue dispatcher: serve jobs + results to --dispatcher "
        "workers over TCP (see docs/DISPATCH.md)",
    )
    p.add_argument("--db", required=True, help="jobs database file")
    p.add_argument("--store", required=True, help="result store dir")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7416,
        help="bind port (0 = pick a free one; see --ready-file)",
    )
    p.add_argument(
        "--ready-file", default=None,
        help="write pid + resolved host/port here once listening",
    )
    p.set_defaults(func=_cmd_dispatch)

    p = sub.add_parser(
        "serve",
        help="always-on streaming session server (see docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7415,
        help="bind port (0 = pick a free one; see --ready-file)",
    )
    p.add_argument(
        "--max-sessions", type=_positive_int, default=4096,
        help="concurrent session cap; create beyond it answers server-full",
    )
    p.add_argument(
        "--max-pending", type=_positive_int, default=32,
        help="per-session ingest queue depth; beyond it pushes answer busy",
    )
    p.add_argument(
        "--max-total-pending", type=_positive_int, default=None,
        help="global queued-chunk budget; beyond it newest-joined "
        "sessions are shed (default: 4 x max(64, max-sessions))",
    )
    p.add_argument(
        "--silence-timeout", type=_positive_float, default=None,
        help="reap sessions idle longer than this many seconds",
    )
    p.add_argument(
        "--tick", type=_positive_float, default=0.05,
        help="pump wake-up period when idle (reaping granularity)",
    )
    p.add_argument(
        "--ready-file", default=None,
        help="write pid + resolved host/port here once listening",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("store", help="result-store maintenance")
    ssub = p.add_subparsers(dest="action", required=True)
    s = ssub.add_parser(
        "fsck",
        help="verify every entry against its checksum; exit 1 on damage",
    )
    s.add_argument("root", help="store directory")
    s.add_argument(
        "--no-repair", action="store_true",
        help="report damage without deleting anything",
    )
    s.set_defaults(func=_cmd_store_fsck)

    p = sub.add_parser(
        "bench",
        help="encoder/receiver/link throughput: one-shot vs chunked vs batched",
    )
    stage = p.add_mutually_exclusive_group()
    stage.add_argument(
        "--rx",
        action="store_true",
        help="benchmark the receiver (decode + correlation) instead of the encoder",
    )
    stage.add_argument(
        "--link",
        action="store_true",
        help="benchmark the IR-UWB link (modulate + demodulate) instead of the encoder",
    )
    stage.add_argument(
        "--sweep",
        action="store_true",
        help="benchmark the dataset sweep across execution backends",
    )
    stage.add_argument(
        "--cache",
        action="store_true",
        help="benchmark a cold vs warm dataset sweep through the result store",
    )
    stage.add_argument(
        "--sessions",
        action="store_true",
        help="benchmark the multi-session SessionBatch runtime against a "
        "scalar per-session streaming loop (SESSIONS_SPEEDUP_MIN gates)",
    )
    stage.add_argument(
        "--queue",
        action="store_true",
        help="benchmark queued N-worker sweeps against the serial path "
        "(QUEUE_SPEEDUP_MIN gates; skipped on 1-core boxes)",
    )
    stage.add_argument(
        "--serve",
        action="store_true",
        help="benchmark the socket session server against the scalar "
        "streaming loop (SERVE_SPEEDUP_MIN gates; includes a SIGTERM "
        "drain check)",
    )
    stage.add_argument(
        "--report",
        action="store_true",
        help="render the BENCH_*.json perf trajectory; exit 1 on a "
        "headline regression (BENCH_REGRESSION_PCT, default 20)",
    )
    p.add_argument("--scheme", choices=("atc", "datc", "both"), default="datc")
    p.add_argument(
        "--bench-out",
        default=None,
        help="directory for BENCH_<area>.json records "
        "(default: $REPRO_BENCH_DIR, else ./benchmarks)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="store location for --cache (default: fresh temp dir, removed)",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="sweep workers (--sweep; default: CPU count)",
    )
    p.add_argument("--signals", type=_positive_int, default=16, help="batch rows")
    p.add_argument(
        "--duration", type=_positive_float, default=20.0, help="seconds per signal"
    )
    p.add_argument(
        "--chunk", type=_positive_int, default=1000, help="streaming chunk size"
    )
    p.add_argument("--repeats", type=_positive_int, default=3, help="best-of repeats")
    p.add_argument(
        "--session-counts",
        default="64,256,1024",
        help="comma-separated concurrent session counts (--sessions)",
    )
    p.add_argument(
        "--queue-workers",
        default="1,2",
        help="comma-separated worker counts (--queue)",
    )
    p.add_argument(
        "--transport",
        choices=("file", "remote"),
        default="file",
        help="queue transport (--queue): 'file' = shared-mount sqlite, "
        "'remote' = workers dial a repro dispatch subprocess over TCP",
    )
    p.add_argument(
        "--serve-sessions",
        default="256,1024",
        help="comma-separated concurrent session counts (--serve)",
    )
    p.add_argument(
        "--serve-connections", type=_positive_int, default=32,
        help="client connections the sessions multiplex over (--serve)",
    )
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
