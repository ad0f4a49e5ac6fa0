"""The paper's parameter studies on the spec path (fast, small dataset).

Every study is one :class:`repro.api.Experiment` call: ``sweep`` over a
spec axis or a data axis, ``dataset_sweep`` over the pattern grid, or
``link_sweep`` over pulse-erasure probabilities.
"""

import warnings

import numpy as np
import pytest

from repro.analysis import dac_resolution_config
from repro.api import Experiment, ExperimentSpec
from repro.core.config import ATCConfig, DATCConfig
from repro.core.pipeline import run_datc

DATC = Experiment(ExperimentSpec())
ATC = Experiment(ExperimentSpec.for_scheme("atc"))

WEIGHT_SETS = (
    (0.35, 0.65, 1.0),  # the paper's empirically-chosen weights
    (1.0, 1.0, 1.0),    # uniform history
    (0.0, 0.0, 2.0),    # last frame only (memoryless)
    (0.1, 0.3, 1.6),    # strongly recency-weighted
)


def frame_size_sweep(pattern, selectors=(0, 1, 2, 3)):
    configs = [DATCConfig(frame_selector=s) for s in selectors]
    return DATC.sweep(
        pattern, "encoder.config", configs, parameter=lambda c: c.frame_size
    )


def dac_resolution_sweep(pattern, bits):
    configs = [dac_resolution_config(b) for b in bits]
    return DATC.sweep(
        pattern, "encoder.config", configs, parameter=lambda c: c.dac_bits
    )


def weight_sweep(pattern, weight_sets=WEIGHT_SETS):
    """Weight triples normalised to the paper's divisor (2)."""
    configs = [
        DATCConfig(weights=tuple(2.0 * w / sum(ws) for w in ws))
        for ws in weight_sets
    ]
    return DATC.sweep(
        pattern, "encoder.config", configs, parameter=lambda c: c.weights[2]
    )


class TestAtcThresholdSweep:
    def test_events_decrease_with_threshold(self, mid_pattern):
        points = ATC.sweep(
            mid_pattern, "encoder.config.vth", [0.05, 0.2, 0.4, 0.6]
        )
        events = [p.n_events for p in points]
        assert events == sorted(events, reverse=True)

    def test_point_fields(self, mid_pattern):
        pt = ATC.sweep(mid_pattern, "encoder.config.vth", [0.3])[0]
        assert pt.parameter == 0.3
        assert pt.n_symbols == pt.n_events


class TestDatasetSweep:
    def test_covers_requested_patterns(self, small_dataset):
        res = DATC.dataset_sweep(small_dataset, limit=4)
        assert res.pattern_ids.tolist() == [0, 1, 2, 3]
        assert res.correlations_pct.size == 4

    def test_datc_tighter_than_atc(self, small_dataset):
        """The Fig. 5 claim on the small dataset: D-ATC's correlation
        range and event spread are tighter than fixed-threshold ATC's."""
        atc = Experiment(
            ExperimentSpec.for_scheme("atc", ATCConfig(vth=0.3))
        ).dataset_sweep(small_dataset)
        datc = DATC.dataset_sweep(small_dataset)
        a_lo, a_hi = atc.correlation_range
        d_lo, d_hi = datc.correlation_range
        assert (d_hi - d_lo) < (a_hi - a_lo)
        assert datc.event_spread < atc.event_spread
        assert datc.correlation_mean > atc.correlation_mean

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            ExperimentSpec.for_scheme("adc")

    def test_jobs_identical_to_sequential(self, small_dataset):
        seq = DATC.dataset_sweep(small_dataset, limit=4)
        par = DATC.dataset_sweep(small_dataset, limit=4, jobs=3)
        assert np.array_equal(seq.correlations_pct, par.correlations_pct)
        assert np.array_equal(seq.n_events, par.n_events)

    def test_threshold_sweep_jobs_identical(self, mid_pattern):
        vths = [0.1, 0.2, 0.3, 0.4]
        seq = ATC.sweep(mid_pattern, "encoder.config.vth", vths)
        par = ATC.sweep(mid_pattern, "encoder.config.vth", vths, jobs=4)
        assert [p.n_events for p in seq] == [p.n_events for p in par]
        assert [p.correlation_pct for p in seq] == [p.correlation_pct for p in par]


class TestFrameSizeSweep:
    def test_four_points(self, mid_pattern):
        points = frame_size_sweep(mid_pattern)
        assert [p.parameter for p in points] == [100.0, 200.0, 400.0, 800.0]

    def test_short_frames_correlate_on_short_pattern(self, mid_pattern):
        """On a 4 s recording only the fast frames (100/200 clocks) have
        enough update cycles to track; the slow ones merely stay sane.
        (The benchmark harness exercises all four on full 20 s patterns.)"""
        points = {int(p.parameter): p for p in frame_size_sweep(mid_pattern)}
        assert points[100].correlation_pct > 85.0
        assert points[200].correlation_pct > 80.0
        for p in points.values():
            assert p.n_events > 0
            assert p.correlation_pct > 40.0


class TestDacResolutionSweep:
    def test_symbol_cost_grows_with_bits(self, mid_pattern):
        bits = (2, 4, 6)
        points = dac_resolution_sweep(mid_pattern, bits)
        per_event = [p.n_symbols / max(p.n_events, 1) for p in points]
        assert per_event == sorted(per_event)
        for b, p in zip(bits, points):
            assert p.n_events > 0
            assert p.n_symbols == p.n_events * (1 + b)

    def test_four_bits_sufficient(self, mid_pattern):
        """The paper's design choice: beyond 4 bits the correlation gain
        is marginal (<2%)."""
        points = {int(p.parameter): p for p in dac_resolution_sweep(mid_pattern, (4, 6))}
        assert points[6].correlation_pct - points[4].correlation_pct < 2.0

    def test_two_bits_degrade(self, mid_pattern):
        points = {int(p.parameter): p for p in dac_resolution_sweep(mid_pattern, (2, 4))}
        assert points[2].correlation_pct <= points[4].correlation_pct + 1.0

    def test_dac_resolution_matches_per_stream_path(self, mid_pattern):
        """The per-row ``dac_bits`` batched decode reproduces the
        per-stream ``run_datc`` result at every resolution."""
        points = dac_resolution_sweep(mid_pattern, (2, 5))
        for bits, point in zip((2, 5), points):
            result = run_datc(mid_pattern, dac_resolution_config(bits))
            assert point.correlation_pct == result.correlation_pct
            assert point.n_events == result.n_events
            assert point.n_symbols == result.n_symbols


class TestPulseLossSweep:
    def test_zero_loss_matches_baseline(self, mid_pattern):
        points = DATC.sweep(mid_pattern, "stream.drop_prob", (0.0,))
        assert points[0].parameter == 0.0

    def test_graceful_degradation(self, mid_pattern):
        """Correlation must degrade gracefully: 20% loss costs only a few
        points of correlation (the paper's artifact-robustness claim)."""
        points = DATC.sweep(mid_pattern, "stream.drop_prob", (0.0, 0.2, 0.5))
        base, mid, high = (p.correlation_pct for p in points)
        assert mid > base - 5.0
        assert high > base - 15.0

    def test_events_drop_with_loss(self, mid_pattern):
        points = DATC.sweep(mid_pattern, "stream.drop_prob", (0.0, 0.3))
        assert points[1].n_events < points[0].n_events

    def test_invalid_probability(self, mid_pattern):
        with pytest.raises(ValueError):
            DATC.sweep(mid_pattern, "stream.drop_prob", (1.0,))

    def test_ndarray_grid_accepted(self, mid_pattern):
        """Sweep grids are often np.linspace arrays, not lists."""
        points = DATC.sweep(
            mid_pattern, "stream.drop_prob", np.linspace(0.0, 0.3, 3)
        )
        assert [p.parameter for p in points] == [0.0, 0.15, 0.3]


class TestLinkErasureSweep:
    @pytest.fixture(scope="class")
    def stream(self, mid_pattern):
        from repro.core.datc import datc_encode

        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        return stream

    def test_clean_point_is_perfect(self, stream):
        points = DATC.link_sweep(stream, (0.0, 0.3))
        assert points[0].event_delivery_ratio == 1.0
        assert points[0].level_error_ratio == 0.0

    def test_delivery_degrades(self, stream):
        points = DATC.link_sweep(stream, (0.0, 0.5))
        assert points[1].event_delivery_ratio < points[0].event_delivery_ratio

    def test_grid_order_and_fields(self, stream):
        probs = (0.2, 0.0, 0.1)
        points = DATC.link_sweep(stream, probs)
        assert [p.erasure_prob for p in points] == list(probs)
        assert all(p.n_pulses == points[0].n_pulses for p in points)
        assert points[0].tx_energy_j > 0

    def test_deterministic_for_seed(self, stream):
        a = DATC.link_sweep(stream, (0.3,), seed=5)
        b = DATC.link_sweep(stream, (0.3,), seed=5)
        assert a == b

    def test_invalid_probability(self, stream):
        with pytest.raises(ValueError):
            DATC.link_sweep(stream, (1.5,))

    def test_empty_grid(self, stream):
        assert DATC.link_sweep(stream, ()) == []


class TestSnrSweep:
    def test_clean_snr_matches_baseline(self, mid_pattern):
        points = DATC.sweep(mid_pattern, "input.snr_db", (40.0,))
        base = run_datc(mid_pattern)
        assert points[0].correlation_pct == pytest.approx(
            base.correlation_pct, abs=2.0
        )

    def test_degrades_with_noise(self, mid_pattern):
        points = DATC.sweep(mid_pattern, "input.snr_db", (30.0, 0.0))
        assert points[1].correlation_pct < points[0].correlation_pct

    def test_moderate_noise_tolerated(self, mid_pattern):
        """10 dB SNR — a poor but realistic electrode — must still carry
        most of the force information."""
        points = DATC.sweep(mid_pattern, "input.snr_db", (10.0,))
        assert points[0].correlation_pct > 80.0

    def test_atc_scheme_supported(self, mid_pattern):
        points = ATC.sweep(mid_pattern, "input.snr_db", (20.0,))
        assert len(points) == 1

    def test_ndarray_grid_accepted(self, mid_pattern):
        points = DATC.sweep(mid_pattern, "input.snr_db", np.array([30.0, 10.0]))
        assert [p.parameter for p in points] == [30.0, 10.0]

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            ExperimentSpec.for_scheme("x")


class TestWeightSweep:
    def test_runs_all_sets(self, mid_pattern):
        points = weight_sweep(mid_pattern)
        assert len(points) == 4
        for point in points:
            assert point.correlation_pct > 70.0

    def test_paper_weights_competitive(self, mid_pattern):
        """The paper's (0.35, 0.65, 1.0) must be within a few % of the
        best weight set tried."""
        points = weight_sweep(mid_pattern)
        best = max(p.correlation_pct for p in points)
        paper = points[0].correlation_pct
        assert paper > best - 3.0


class TestFiguresRideTheSpecPath:
    def test_fig_drivers_do_not_warn(self, small_dataset):
        """Regenerating the figures raises no warning of any kind."""
        from repro.analysis.experiments import run_fig3, run_fig5, run_fig7

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_fig3(pattern_id=2, dataset=small_dataset)
            run_fig5(n_patterns=3, dataset=small_dataset)
            run_fig7(pattern_ids=(1,), vths=(0.2, 0.4), dataset=small_dataset)
