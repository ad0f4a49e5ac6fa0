"""End-to-end benchmark of the D-ATC reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 20 --trace 0

Drives the program only through its public API and the ``python -m
repro serve|dispatch|worker`` entry points, checks every output, and
prints one JSON result line last: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1`` (a separate run that wraps the layer entry points in
spans; see tracing.py).  Host facts go to stdout as a ``host`` line
first, so runs from different hosts are never compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

import common
import tracing

WORKLOADS = ("fig5-sweep", "serve-fleet", "queue-dispatch")


def _load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _workload(name: str):
    if name == "fig5-sweep":
        import wl_fig5 as module
    elif name == "serve-fleet":
        import wl_serve as module
    else:
        import wl_queue as module
    return module


def layer_metrics(table: dict, extra: dict) -> dict:
    """Per-layer metric values from a layer table plus measured extras.

    ``*_ms`` of compute layers are self times; the queue verbs and RPCs
    are inclusive (their time is mostly waiting on the other side).
    Layers the workload does not exercise read 0.
    """
    rows, counts = table["rows"], table["counts"]

    def self_ms(*names):
        return sum(rows.get(n, {}).get("self_ms", 0.0) for n in names)

    def incl_ms(name):
        return rows.get(name, {}).get("incl_ms", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    signals = [n for n in rows if n.startswith("signals.")]
    rpcs = [n for n in rows if n.startswith("runtime.transport.rpc.")]
    hits = counts.get("runtime.store.hits", 0)
    misses = counts.get("runtime.store.misses", 0)
    m = {
        "import.repro_s": extra.get("import.repro_s", 0.0),
        "import.scipy_loaded": extra.get("import.scipy_loaded", 0),
        "signals.total_ms": self_ms(*signals),
        "signals.force_ms": self_ms("signals.force", "signals.smooth_profile"),
        "signals.smooth_profile_ms": self_ms("signals.smooth_profile"),
        "signals.emg_ms": self_ms("signals.emg"),
        "signals.envelope_ms": self_ms("signals.envelope"),
        "signals.patterns_synthesized": counts.get("signals.patterns_synthesized", 0),
        "core.encode_ms": self_ms("core.encode"),
        "uwb.link_ms": self_ms("uwb.link"),
        "rx.decode_ms": self_ms("rx.decode"),
        "rx.score_ms": self_ms("rx.score"),
        "api.self_ms": self_ms("api.dataset_sweep", "api.run"),
        "runtime.store.put_ms": self_ms("runtime.store.put"),
        "runtime.store.puts": calls("runtime.store.put"),
        "runtime.store.get_ms": self_ms("runtime.store.get"),
        "runtime.store.gets": calls("runtime.store.get"),
        "runtime.store.hit_ratio": ratio(hits, hits + misses),
        "runtime.queue.claim_ms": incl_ms("runtime.queue.claim"),
        "runtime.queue.complete_ms": incl_ms("runtime.queue.complete"),
        "runtime.queue.claims": calls("runtime.queue.claim"),
        "runtime.queue.useful_claim_ratio": ratio(
            counts.get("runtime.queue.useful_claims", 0), calls("runtime.queue.claim")
        ),
        "runtime.queue.idle_sleep_s": incl_ms("runtime.queue.idle_sleep") / 1e3,
        "runtime.transport.rpc_ms": sum(incl_ms(n) for n in rpcs),
        "runtime.transport.rpcs": sum(calls(n) for n in rpcs),
        "runtime.transport.reconnects": counts.get("runtime.transport.reconnects", 0),
        "runtime.dispatcher.backend_ms": self_ms("runtime.dispatcher.backend"),
        "runtime.sessions.push_ms": self_ms("runtime.sessions.push"),
        "runtime.sessions.push_calls": calls("runtime.sessions.push"),
        "runtime.sessions.rows_per_push": ratio(
            counts.get("runtime.sessions.rows", 0), calls("runtime.sessions.push")
        ),
        "runtime.client.pack_ms": self_ms("runtime.client.pack"),
        "runtime.server.unpack_ms": self_ms("runtime.server.unpack"),
        "runtime.server.pending_max": table["maxima"].get("runtime.server.pending_max", 0),
        "trace.cpu_ms": table["cpu_ms"],
        "trace.uncovered_cpu_ms": table["uncovered_cpu_ms"],
        "trace.coverage": ratio(table["covered_cpu_ms"], table["cpu_ms"]),
    }
    for verb in tracing.RPC_VERBS:
        m[f"runtime.transport.rpc_ms.{verb}"] = incl_ms(f"runtime.transport.rpc.{verb}")
    for name in (
        "runtime.client.bytes_sent", "runtime.server.busy", "runtime.server.shed",
        "runtime.server.ready_s", "runtime.worker.ready_s",
        "runtime.dispatcher.ready_s", "bench.generator_lag_p99_ms",
    ):
        m[name] = extra.get(name, 0.0)
    m["trace.overhead_s"] = extra["overhead_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        common.note(f"no program to benchmark: {common.SRC}/repro is missing")
        return 2
    sys.path.insert(0, common.SRC)
    spec = _load_spec()
    print(json.dumps({"host": common.host_info()}), flush=True)

    shutil.rmtree(common.WORK, ignore_errors=True)
    os.makedirs(common.WORK)
    module = _workload(args.workload)
    tally = common.Tally()
    try:
        if args.trace:
            result = module.run_traced(args.seed, tally)
            table = result.pop("table")
            common.note(tracing.format_table(table, result["overhead_s"]))
            values = layer_metrics(table, result)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            rss = common.RssPeak()
            values = module.run(args.seed, args.seconds, tally, rss)
            values["ok_ratio"] = 1.0 - tally.error_ratio
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    if set(values) != set(units):
        common.note(
            f"metric set mismatch: missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
        return 1
    if tally.failed:
        common.note(f"output check failures: {tally.reasons}")
    common.note(
        f"{args.workload}: attempted {tally.attempted}, failed {tally.failed}, "
        f"error_ratio {tally.error_ratio:.6f}"
    )
    common.emit(tally, {n: (values[n], units[n]) for n in units}, tally.failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
