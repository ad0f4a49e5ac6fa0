"""Tests for event-rate windowing."""

import numpy as np
import pytest

from repro.core.events import EventStream
from repro.rx.windowing import (
    binned_counts,
    event_rate,
    exponential_rate,
    fold_final_bins,
    grid_centers,
    grid_edges,
    stream_bins,
)


def make_stream(times, duration=10.0):
    return EventStream(times=np.asarray(times, dtype=float), duration_s=duration)


class TestBinnedCounts:
    def test_total_preserved(self, rng):
        times = np.sort(rng.uniform(0, 10, 333))
        counts = binned_counts(make_stream(times), fs_out=50.0)
        assert counts.sum() == 333

    def test_length(self):
        counts = binned_counts(make_stream([1.0]), fs_out=100.0)
        assert counts.size == 1000

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            binned_counts(make_stream([1.0]), fs_out=0.0)

    def test_too_short_duration(self):
        s = EventStream(times=np.array([0.001]), duration_s=0.005)
        with pytest.raises(ValueError):
            binned_counts(s, fs_out=100.0)


class TestFoldFinalBins:
    def test_matches_histogram(self, rng):
        edges = grid_edges(40, fs_out=10.0)
        times = np.concatenate([np.sort(rng.uniform(0, 4.0, 97)), [4.0]])
        counts = np.zeros(40, dtype=np.intp)
        fold_final_bins(counts, times, edges)
        expected, _ = np.histogram(times, bins=edges)
        assert np.array_equal(counts, expected)
        assert counts[-1] >= 1  # the event on the last edge is kept

    def test_adds_in_place_and_drops_outside(self):
        counts = np.array([1, 0, 2], dtype=np.intp)
        times = np.array([-0.1, 0.05, 0.3, 0.31])
        fold_final_bins(counts, times, grid_edges(3, 10.0))
        assert counts.tolist() == [2, 0, 3]

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="duration too short"):
            fold_final_bins(
                np.zeros(0, dtype=np.intp), np.array([0.0]), grid_edges(0, 10.0)
            )


class TestEventRate:
    def test_uniform_train_rate(self):
        """A 50 Hz regular train must estimate ~50 Hz away from edges."""
        times = np.arange(0.01, 10.0, 0.02)
        rate = event_rate(make_stream(times), fs_out=100.0, window_s=0.5)
        interior = rate[100:-100]
        assert np.allclose(interior, 50.0, rtol=0.05)

    def test_rate_steps_with_density(self):
        times = np.concatenate([np.arange(0.01, 5.0, 0.1), np.arange(5.0, 10.0, 0.01)])
        rate = event_rate(make_stream(times), fs_out=100.0, window_s=0.2)
        assert rate[700:900].mean() > 5 * rate[100:300].mean()

    def test_empty_stream_zero_rate(self):
        rate = event_rate(make_stream([]), fs_out=100.0)
        assert np.all(rate == 0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            event_rate(make_stream([1.0]), 100.0, window_s=0.0)


class TestOutputGrid:
    """The shared grid helpers every reconstructor (and the batched
    engine) builds on."""

    def test_bin_count(self):
        s = make_stream([1.0], duration=10.0)
        assert stream_bins(s, 100.0) == 1000
        assert stream_bins(s, 7.5) == 75

    def test_edges_and_centers(self):
        assert np.array_equal(grid_edges(4, 2.0), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.array_equal(grid_centers(4, 2.0), [0.25, 0.75, 1.25, 1.75])

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            stream_bins(make_stream([1.0]), 0.0)

    def test_zero_duration_empty_stream_is_legal(self):
        """Incremental encoders emit zero-duration empty streams before
        their first whole clock period; the receiver returns empty arrays
        rather than raising."""
        s = EventStream(times=np.zeros(0), duration_s=0.0)
        assert stream_bins(s, 100.0) == 0
        assert binned_counts(s, 100.0).size == 0
        assert event_rate(s, 100.0).size == 0
        assert exponential_rate(s, 100.0).size == 0

    def test_short_empty_stream_is_legal(self):
        s = EventStream(times=np.zeros(0), duration_s=0.005)
        assert binned_counts(s, 100.0).size == 0

    def test_events_without_bins_still_raise(self):
        s = EventStream(times=np.array([0.001]), duration_s=0.005)
        with pytest.raises(ValueError, match="too short"):
            stream_bins(s, 100.0)


class TestExponentialRate:
    def test_converges_to_true_rate(self):
        times = np.arange(0.01, 10.0, 0.02)  # 50 Hz
        rate = exponential_rate(make_stream(times), fs_out=100.0, tau_s=0.2)
        assert rate[-200:].mean() == pytest.approx(50.0, rel=0.1)

    def test_causal_startup_from_zero(self):
        times = np.arange(0.01, 10.0, 0.02)
        rate = exponential_rate(make_stream(times), fs_out=100.0, tau_s=1.0)
        assert rate[0] < rate[-1]

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            exponential_rate(make_stream([1.0]), 100.0, tau_s=0.0)

    def test_matches_sequential_recurrence(self, rng):
        """The vectorised log-scan tracks the per-sample loop to 1e-12."""
        times = np.sort(rng.uniform(0, 10, 500))
        stream = make_stream(times)
        got = exponential_rate(stream, 100.0, tau_s=0.25)
        counts = binned_counts(stream, 100.0).astype(float)
        alpha = 1.0 - np.exp(-1.0 / (0.25 * 100.0))
        acc, ref = 0.0, np.empty_like(counts)
        for i, c in enumerate(counts):
            acc += alpha * (c - acc)
            ref[i] = acc
        ref *= 100.0
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12
