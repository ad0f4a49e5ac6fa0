"""Tests for force-profile generators."""

import numpy as np
import pytest

from repro.signals.force import (
    concatenate_profiles,
    constant_profile,
    mvc_grip_protocol,
    ramp_profile,
    random_grip_protocol,
    rest_profile,
    sinusoidal_profile,
    smooth_profile,
    staircase_profile,
    trapezoid_profile,
)

FS = 1000.0


class TestConstantProfile:
    def test_length_and_value(self):
        p = constant_profile(2.0, FS, 0.5)
        assert p.size == 2000
        assert np.all(p == 0.5)

    def test_zero_duration(self):
        assert constant_profile(0.0, FS, 0.5).size == 0

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            constant_profile(1.0, FS, 1.5)
        with pytest.raises(ValueError):
            constant_profile(1.0, FS, -0.1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            constant_profile(-1.0, FS, 0.5)

    def test_bad_fs_rejected(self):
        with pytest.raises(ValueError):
            constant_profile(1.0, 0.0, 0.5)


class TestRampProfile:
    def test_endpoints(self):
        p = ramp_profile(1.0, FS, 0.1, 0.9)
        assert p[0] == pytest.approx(0.1)
        assert p[-1] == pytest.approx(0.9)

    def test_monotone_increasing(self):
        p = ramp_profile(1.0, FS, 0.0, 1.0)
        assert np.all(np.diff(p) >= 0)

    def test_descending_ramp(self):
        p = ramp_profile(1.0, FS, 0.8, 0.2)
        assert np.all(np.diff(p) <= 0)

    def test_empty(self):
        assert ramp_profile(0.0, FS, 0.0, 1.0).size == 0


class TestTrapezoidProfile:
    def test_reaches_level_and_returns(self):
        p = trapezoid_profile(0.2, 0.6, 0.2, FS, 0.7)
        assert p.max() == pytest.approx(0.7)
        assert p[0] == pytest.approx(0.0)
        assert p[-1] == pytest.approx(0.0)

    def test_hold_segment_is_flat(self):
        p = trapezoid_profile(0.1, 0.5, 0.1, FS, 0.6)
        hold = p[150:550]
        assert np.allclose(hold, 0.6)

    def test_total_length(self):
        p = trapezoid_profile(0.1, 0.2, 0.3, FS, 0.5)
        assert p.size == 100 + 200 + 300


class TestStaircaseProfile:
    def test_levels_in_order(self):
        p = staircase_profile([0.1, 0.5, 0.9], 0.1, FS)
        assert p.size == 300
        assert np.allclose(p[:100], 0.1)
        assert np.allclose(p[100:200], 0.5)
        assert np.allclose(p[200:], 0.9)

    def test_empty_levels(self):
        assert staircase_profile([], 1.0, FS).size == 0


class TestSinusoidalProfile:
    def test_clipped_to_unit_interval(self):
        p = sinusoidal_profile(2.0, FS, mean=0.5, amplitude=0.8, frequency_hz=1.0)
        assert p.min() >= 0.0
        assert p.max() <= 1.0

    def test_mean_without_clipping(self):
        p = sinusoidal_profile(5.0, FS, mean=0.5, amplitude=0.2, frequency_hz=2.0)
        assert p.mean() == pytest.approx(0.5, abs=0.01)


class TestSmoothProfile:
    def test_preserves_constant(self):
        p = constant_profile(1.0, FS, 0.4)
        assert np.allclose(smooth_profile(p, FS), 0.4, atol=1e-6)

    def test_removes_discontinuity(self):
        p = concatenate_profiles(rest_profile(0.5, FS), constant_profile(0.5, FS, 1.0))
        s = smooth_profile(p, FS, cutoff_hz=2.0)
        assert np.max(np.abs(np.diff(s))) < np.max(np.abs(np.diff(p)))

    def test_zero_phase(self):
        # A symmetric bump must stay centred after smoothing.
        p = trapezoid_profile(0.3, 0.4, 0.3, FS, 0.8)
        s = smooth_profile(p, FS)
        centre = p.size // 2
        assert abs(int(np.argmax(s)) - centre) < int(0.1 * FS)

    def test_empty_input(self):
        assert smooth_profile(np.zeros(0), FS).size == 0

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            smooth_profile(np.zeros(10), FS, cutoff_hz=0.0)

    @pytest.mark.parametrize("fs", [0.0, -2500.0])
    def test_bad_fs_rejected(self, fs):
        with pytest.raises(ValueError, match="fs"):
            smooth_profile(ramp_profile(1.0, FS, 0.0, 0.7), fs)

    def test_bad_cutoff_rejected_on_empty_input(self):
        with pytest.raises(ValueError, match="cutoff_hz"):
            smooth_profile(np.zeros(0), FS, cutoff_hz=-1.0)

    def test_bad_fs_rejected_on_empty_input(self):
        with pytest.raises(ValueError, match="fs"):
            smooth_profile(np.zeros(0), -1.0)

    @pytest.mark.parametrize("shape", [(2, 5), (0, 3), ()])
    def test_non_1d_input_rejected(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            smooth_profile(np.zeros(shape), FS)


class TestMvcGripProtocol:
    def test_exact_sample_count(self):
        p = mvc_grip_protocol(20.0, 2500.0)
        assert p.size == 50_000

    def test_within_unit_interval(self):
        p = mvc_grip_protocol(20.0, 2500.0)
        assert p.min() >= 0.0
        assert p.max() <= 1.0

    def test_peak_near_max_level(self):
        p = mvc_grip_protocol(20.0, 2500.0, max_level=0.7)
        assert 0.55 <= p.max() <= 0.7

    def test_decreasing_contraction_peaks(self):
        """The protocol sweeps 70% MVC down towards 0."""
        p = mvc_grip_protocol(20.0, 2500.0, n_contractions=6)
        thirds = np.array_split(p, 3)
        maxima = [seg.max() for seg in thirds]
        assert maxima[0] > maxima[1] > maxima[2]

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            mvc_grip_protocol(20.0, FS, n_contractions=0)
        with pytest.raises(ValueError):
            mvc_grip_protocol(20.0, FS, rest_fraction=1.0)


class TestRandomGripProtocol:
    def test_reproducible_for_same_seed(self):
        a = random_grip_protocol(10.0, FS, np.random.default_rng(7))
        b = random_grip_protocol(10.0, FS, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_grip_protocol(10.0, FS, np.random.default_rng(7))
        b = random_grip_protocol(10.0, FS, np.random.default_rng(8))
        assert not np.array_equal(a, b)

    def test_sample_count_and_bounds(self):
        p = random_grip_protocol(10.0, FS, np.random.default_rng(3))
        assert p.size == 10_000
        assert p.min() >= 0.0
        assert p.max() <= 1.0


class TestConcatenateProfiles:
    def test_orders_segments(self):
        p = concatenate_profiles(
            constant_profile(0.1, FS, 0.2), constant_profile(0.1, FS, 0.8)
        )
        assert np.allclose(p[:100], 0.2)
        assert np.allclose(p[100:], 0.8)

    def test_no_args(self):
        assert concatenate_profiles().size == 0
