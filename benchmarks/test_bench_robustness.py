"""Bench: robustness of D-ATC to input SNR and to receiver decoder choice.

Three studies beyond the paper's headline figures:

* **SNR sweep** — the paper claims the scheme "is robust w.r.t. the sEMG
  signal variability"; we quantify correlation vs additive input noise
  for both schemes.
* **Decoder comparison** — the D-ATC stream supports three receiver
  decoders (rate-only, level-only, hybrid); the hybrid one used in all
  experiments must dominate on weak *and* strong subjects.
* **Link erasure sweep** — individual radiated pulses are erased by the
  channel (the paper's "artifacts effect is similar to pulse missing"
  at the physical layer); all points run through one batched
  ``simulate_link_batch`` call.
"""

from repro.api import Experiment, ExperimentSpec
from repro.core.datc import datc_encode
from repro.rx.correlation import aligned_correlation_percent
from repro.rx.reconstruction import (
    reconstruct_hybrid,
    reconstruct_levels,
    reconstruct_rate,
)

from conftest import print_report


def test_snr_robustness(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    snrs = (30.0, 20.0, 10.0, 5.0, 0.0)

    def run():
        return tuple(
            Experiment(ExperimentSpec.for_scheme(scheme)).sweep(
                pattern, "input.snr_db", snrs
            )
            for scheme in ("datc", "atc")
        )

    datc_points, atc_points = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'SNR dB':>8} {'D-ATC corr %':>13} {'ATC corr %':>11}"]
    for d, a in zip(datc_points, atc_points):
        lines.append(f"{d.parameter:>8.0f} {d.correlation_pct:>13.2f} {a.correlation_pct:>11.2f}")
    print_report("Correlation vs input SNR (clean-signal reference)", "\n".join(lines))

    by_snr = {p.parameter: p for p in datc_points}
    # Clean-ish input: full performance.
    assert by_snr[30.0].correlation_pct > 93.0
    # Realistic poor electrode (10 dB) still usable.
    assert by_snr[10.0].correlation_pct > 80.0
    # Degradation is monotone-ish end to end.
    assert datc_points[-1].correlation_pct < datc_points[0].correlation_pct


def test_link_erasure_robustness(benchmark, paper_dataset):
    pattern = paper_dataset.pattern(22)
    stream, _ = datc_encode(pattern.emg, pattern.fs)
    probs = (0.0, 0.05, 0.1, 0.2, 0.4)

    points = benchmark.pedantic(
        lambda: Experiment(ExperimentSpec()).link_sweep(stream, probs),
        rounds=1,
        iterations=1,
    )

    lines = [f"{'erasure p':>10} {'delivery':>9} {'level err':>10} {'pulses':>9}"]
    for p in points:
        lines.append(
            f"{p.erasure_prob:>10.2f} {p.event_delivery_ratio:>9.3f} "
            f"{p.level_error_ratio:>10.3f} {p.n_pulses:>9,}"
        )
    print_report(
        "D-ATC link under pulse erasures (batched simulate_link_batch)",
        "\n".join(lines),
    )

    # Clean channel: every event and level survives.
    assert points[0].event_delivery_ratio == 1.0
    assert points[0].level_error_ratio == 0.0
    # Erasures cost delivered events and corrupt levels of survivors.
    assert points[-1].event_delivery_ratio < points[0].event_delivery_ratio
    assert points[-1].level_error_ratio > 0.0


def test_decoder_comparison(benchmark, paper_dataset):
    weak = paper_dataset.pattern(0)    # lowest-gain subject
    strong = paper_dataset.pattern(3)  # highest-gain subject

    def run():
        rows = []
        for name, pattern in (("weak", weak), ("strong", strong)):
            stream, _ = datc_encode(pattern.emg, pattern.fs)
            ref = pattern.ground_truth_envelope()
            rows.append(
                (
                    name,
                    aligned_correlation_percent(reconstruct_rate(stream), ref),
                    aligned_correlation_percent(reconstruct_levels(stream), ref),
                    aligned_correlation_percent(reconstruct_hybrid(stream), ref),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'subject':<10}{'rate-only':>11}{'level-only':>12}{'hybrid':>9}"]
    for name, r, l, h in rows:
        lines.append(f"{name:<10}{r:>11.2f}{l:>12.2f}{h:>9.2f}")
    print_report("D-ATC receiver decoders (correlation %)", "\n".join(lines))

    for name, r, l, h in rows:
        # The hybrid decoder must not lose to either component...
        assert h >= min(r, l) - 1.0, name
        # ...and must clear the quality bar on every subject strength.
        assert h > 90.0, name
