"""Ablation benches for the design choices the paper calls out.

* **DAC resolution** — "Different DAC resolution have been examined to
  determine the best trade-off between accuracy and complexity": we sweep
  2-6 bits and report correlation, symbol cost, and hardware cost.
* **Frame size** — the 2-bit Frame_selector's 100/200/400/800 options.
* **Predictor weights** — "determined empirically based on a very large
  set of data": we compare the paper's (0.35, 0.65, 1) against uniform,
  memoryless and strongly-recency-weighted alternatives.
* **Pulse loss** — "artifacts effect is similar to pulse missing": D-ATC
  correlation under event erasures.
"""

from repro.analysis import dac_resolution_config
from repro.api import Experiment, ExperimentSpec
from repro.core.config import DATCConfig
from repro.hardware.report import generate_table1

from conftest import print_report

DATC = Experiment(ExperimentSpec())


def test_dac_resolution_ablation(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    configs = [dac_resolution_config(b) for b in (2, 3, 4, 5, 6)]
    points = benchmark.pedantic(
        lambda: DATC.sweep(
            pattern, "encoder.config", configs, parameter=lambda c: c.dac_bits
        ),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'bits':>5} {'corr %':>8} {'events':>8} {'symbols':>9} "
             f"{'cells':>7} {'power nW':>9}"]
    for p in points:
        bits = int(p.parameter)
        t1 = generate_table1(
            DATCConfig(dac_bits=bits, n_levels=1 << bits,
                       interval_step=0.48 / (1 << bits),
                       initial_level=(1 << bits) // 2)
        )
        lines.append(
            f"{bits:>5d} {p.correlation_pct:>8.2f} {p.n_events:>8d} "
            f"{p.n_symbols:>9d} {t1.n_cells:>7d} {t1.dynamic_power_nw:>9.1f}"
        )
    print_report("Ablation — DAC resolution (accuracy vs complexity)", "\n".join(lines))

    by_bits = {int(p.parameter): p for p in points}
    # 4 bits is the knee: within 2% of 6 bits at 2 fewer symbols/event.
    assert by_bits[6].correlation_pct - by_bits[4].correlation_pct < 2.0
    # Very coarse DACs hurt.
    assert by_bits[2].correlation_pct < by_bits[4].correlation_pct + 1.0


def test_frame_size_ablation(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    configs = [DATCConfig(frame_selector=s) for s in (0, 1, 2, 3)]
    points = benchmark.pedantic(
        lambda: DATC.sweep(
            pattern, "encoder.config", configs, parameter=lambda c: c.frame_size
        ),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'frame':>6} {'corr %':>8} {'events':>8}"]
    lines += [
        f"{int(p.parameter):>6d} {p.correlation_pct:>8.2f} {p.n_events:>8d}"
        for p in points
    ]
    print_report("Ablation — frame size (adaptation speed)", "\n".join(lines))

    by_frame = {int(p.parameter): p for p in points}
    # On full 20 s recordings every frame size tracks well...
    for p in points:
        assert p.correlation_pct > 85.0
    # ...but the fastest frame adapts best on dynamic grip protocols.
    assert by_frame[100].correlation_pct >= by_frame[800].correlation_pct - 1.0


def test_weight_ablation(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    weight_sets = (
        (0.35, 0.65, 1.0),  # the paper's empirically-chosen weights
        (1.0, 1.0, 1.0),    # uniform history
        (0.0, 0.0, 2.0),    # last frame only (memoryless)
        (0.1, 0.3, 1.6),    # strongly recency-weighted
    )
    # Normalised to the paper's divisor (2) so the interval ladder keeps
    # its meaning.
    configs = [
        DATCConfig(weights=tuple(2.0 * w / sum(ws) for w in ws))
        for ws in weight_sets
    ]
    points = benchmark.pedantic(
        lambda: DATC.sweep(
            pattern, "encoder.config", configs, parameter=lambda c: c.weights[2]
        ),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'weights (W1,W2,W3)':>22} {'corr %':>8} {'events':>8}"]
    lines += [
        f"{str(w):>22} {p.correlation_pct:>8.2f} {p.n_events:>8d}"
        for w, p in zip(weight_sets, points)
    ]
    print_report("Ablation — predictor weights", "\n".join(lines))

    best = max(p.correlation_pct for p in points)
    paper_point = points[0]
    assert paper_point.correlation_pct > best - 3.0


def test_pulse_loss_ablation(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    probs = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
    points = benchmark.pedantic(
        lambda: DATC.sweep(pattern, "stream.drop_prob", probs),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'loss':>6} {'corr %':>8} {'events':>8}"]
    lines += [
        f"{p.parameter:>6.2f} {p.correlation_pct:>8.2f} {p.n_events:>8d}"
        for p in points
    ]
    print_report("Ablation — robustness to pulse loss (artifact model)", "\n".join(lines))

    base = points[0].correlation_pct
    by_prob = {p.parameter: p for p in points}
    # Graceful degradation: 20% loss costs only a few correlation points.
    assert by_prob[0.2].correlation_pct > base - 5.0
    # Even half the events gone keeps the envelope usable.
    assert by_prob[0.5].correlation_pct > base - 15.0
    # Degradation is monotone-ish (allow small non-monotonic wiggle).
    corrs = [p.correlation_pct for p in points]
    assert corrs[-1] <= corrs[0]
