"""``fig5-sweep``: the paper's Fig. 5 dataset sweep, in process.

Each repetition runs ``run_fig5`` (ATC at 0.3 V and D-ATC) over a
prefix of the paper dataset (20 s patterns at 2500 Hz) against a fresh
``ResultStore``, then re-runs it warm over the same store.  Synthesis,
encode, decode and score do almost all the work; there is no queue or
wire.  Outputs are checked against golden per-pattern correlations and
event counts committed in ``golden_fig5.json``, and the D-ATC mean must
sit in the paper's ~96% band.

Regenerate the golden file (only after a deliberate numeric change)::

    PYTHONPATH=src python3 perfbench/wl_fig5.py --write-golden
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

import common

N_PATTERNS = 8
VTH = 0.3
N_GOLDEN_SEEDS = 16
WARM_PASSES = 3
# The paper reports ~96% correlation for D-ATC (96.41% on its Fig. 3
# pattern, 85-98% over the dataset); the synthetic dataset's mean over
# a prefix must land within this band.
DATC_MEAN_BAND = (94.0, 98.0)
GOLDEN = os.path.join(common.HERE, "golden_fig5.json")


def dataset_seed(seed: int) -> int:
    """The workload seed picks one of the golden-covered dataset seeds."""
    return 2015 + seed % N_GOLDEN_SEEDS


def _sweep(dataset, store):
    from repro.analysis.experiments import run_fig5

    return run_fig5(n_patterns=N_PATTERNS, vth=VTH, dataset=dataset, store=store)


def _arrays(result) -> dict:
    return {
        scheme: {
            "corr": [float(x) for x in getattr(result, scheme).correlations_pct],
            "events": [int(x) for x in getattr(result, scheme).n_events],
        }
        for scheme in ("atc", "datc")
    }


def check(result, golden: dict, tally: common.Tally) -> None:
    """One attempt per pattern and scheme, plus the D-ATC band check."""
    got = _arrays(result)
    for scheme in ("atc", "datc"):
        want = golden[scheme]
        for i in range(N_PATTERNS):
            ok = (
                got[scheme]["corr"][i] == want["corr"][i]
                and got[scheme]["events"][i] == want["events"][i]
            )
            tally.check(ok, f"fig5 {scheme} pattern {i} differs from golden")
    mean = statistics.fmean(got["datc"]["corr"])
    lo, hi = DATC_MEAN_BAND
    tally.check(lo <= mean <= hi, f"D-ATC mean {mean:.2f}% outside {DATC_MEAN_BAND}")


class Fig5:
    def __init__(self, seed: int) -> None:
        from repro.signals.dataset import DatasetSpec

        self.ds_seed = dataset_seed(seed)
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)["seeds"][str(self.ds_seed)]
        self.dataset = DatasetSpec(seed=self.ds_seed)
        self.n_rep = 0

    def rep(self, tally: common.Tally, warm_passes: int = WARM_PASSES):
        """One cold sweep and its warm re-runs: (cold s, [warm s], result)."""
        from repro.runtime.store import ResultStore

        root = os.path.join(common.WORK, f"fig5-store-{os.getpid()}-{self.n_rep}")
        self.n_rep += 1
        shutil.rmtree(root, ignore_errors=True)
        try:
            store = ResultStore(root)
            t0 = time.perf_counter()
            cold = _sweep(self.dataset, store)
            cold_s = time.perf_counter() - t0
            check(cold, self.golden, tally)
            warm_s = []
            for _ in range(warm_passes):
                t0 = time.perf_counter()
                warm = _sweep(self.dataset, store)
                warm_s.append(time.perf_counter() - t0)
            tally.check(_arrays(warm) == _arrays(cold), "warm re-run differs from cold")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return cold_s, warm_s, cold


def run(seed: int, seconds: float, tally: common.Tally, rss: common.RssPeak) -> dict:
    import_s, _ = common.import_probe()
    t0 = time.perf_counter()
    bench = Fig5(seed)
    input_s = time.perf_counter() - t0
    cold, warm = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cold) < 3:
        cold_s, warm_s, _ = bench.rep(tally)
        cold.append(cold_s)
        warm.append(statistics.median(warm_s))
    lat = common.tail([c * 1e3 for c in cold], 90.0)
    common.note(
        f"fig5-sweep: {len(cold)} reps of {N_PATTERNS} patterns x 2 schemes "
        f"(dataset seed {bench.ds_seed}); cold p50 {lat['p50']:.1f} ms, "
        f"p{lat['tail_pct']:.1f} {lat['tail']:.1f} ms (n={lat['n']}); warm "
        f"re-run {statistics.median(N_PATTERNS / w for w in warm):.0f} patterns/s"
    )
    return {
        "setup_s": import_s + input_s,
        "peak_rss_mb": rss.total_mb(),
        "patterns_per_s": statistics.median(N_PATTERNS / c for c in cold),
        "latency_p50_ms": lat["p50"],
    }


def run_traced(seed: int, tally: common.Tally) -> dict:
    import tracing

    import_s, scipy_loaded = common.import_probe(n=1)
    bench = Fig5(seed)
    bench.rep(tally, warm_passes=1)  # warm numpy and the allocator
    cpu0 = time.process_time()
    _, _, plain = bench.rep(tally, warm_passes=1)
    plain_cpu = time.process_time() - cpu0
    rec = tracing.Recorder()
    rec.install(tracing.SWEEP_TARGETS + tracing.STORE_TARGETS)
    try:
        _, _, traced = bench.rep(tally, warm_passes=1)
    finally:
        rec.uninstall()
    dump = rec.dump()
    tally.check(_arrays(traced) == _arrays(plain), "traced outputs differ from untraced")
    table = tracing.layer_table([dump])
    tracing.require_called(
        table,
        [
            "signals.pattern", "signals.force", "signals.smooth_profile",
            "signals.emg", "signals.envelope", "core.encode", "rx.decode",
            "rx.score", "api.dataset_sweep", "runtime.store.put",
            "runtime.store.get",
        ],
    )
    return {
        "table": table,
        "overhead_s": dump["cpu_s"] - plain_cpu,
        "import.repro_s": import_s,
        "import.scipy_loaded": scipy_loaded,
    }


def write_golden() -> None:
    from repro.signals.dataset import DatasetSpec

    seeds = {}
    for k in range(N_GOLDEN_SEEDS):
        ds = 2015 + k
        seeds[str(ds)] = _arrays(_sweep(DatasetSpec(seed=ds), None))
    body = {"n_patterns": N_PATTERNS, "vth": VTH, "seeds": seeds}
    with open(GOLDEN, "w") as fh:
        json.dump(body, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        raise SystemExit("usage: wl_fig5.py --write-golden")
    sys.path.insert(0, common.SRC)
    write_golden()
