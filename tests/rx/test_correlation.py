"""Tests for the correlation metric."""

import numpy as np
import pytest

from repro.rx.correlation import (
    aligned_correlation_percent,
    aligned_correlation_percent_batch,
    correlation_percent,
    pearson_r,
    resample_to_length,
)


class TestPearsonR:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson_r(x, 2 * x + 5) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(10.0)
        assert pearson_r(x, -x) == pytest.approx(-1.0)

    def test_scale_and_offset_invariant(self, rng):
        x = rng.standard_normal(500)
        assert pearson_r(x, 3.7 * x - 2.0) == pytest.approx(1.0)

    def test_constant_input_returns_zero(self):
        assert pearson_r(np.ones(10), np.arange(10.0)) == 0.0
        assert pearson_r(np.arange(10.0), np.zeros(10)) == 0.0

    def test_independent_noise_near_zero(self, rng):
        a = rng.standard_normal(20_000)
        b = rng.standard_normal(20_000)
        assert abs(pearson_r(a, b)) < 0.03

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_r(np.zeros(3), np.zeros(4))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson_r(np.zeros(1), np.zeros(1))

    def test_clipped_to_unit_range(self, rng):
        x = rng.standard_normal(100)
        assert -1.0 <= pearson_r(x, x) <= 1.0


class TestCorrelationPercent:
    def test_percent_scale(self):
        x = np.arange(100.0)
        assert correlation_percent(x, x) == pytest.approx(100.0)


class TestResample:
    def test_identity_when_lengths_match(self):
        x = np.arange(5.0)
        assert np.array_equal(resample_to_length(x, 5), x)

    def test_upsample_preserves_endpoints(self):
        x = np.array([0.0, 1.0])
        up = resample_to_length(x, 11)
        assert up[0] == 0.0 and up[-1] == 1.0
        assert np.allclose(np.diff(up), 0.1)

    def test_downsample_preserves_endpoints(self):
        x = np.linspace(0, 1, 101)
        down = resample_to_length(x, 11)
        assert down[0] == 0.0 and down[-1] == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            resample_to_length(np.zeros(0), 5)
        with pytest.raises(ValueError):
            resample_to_length(np.zeros(5), 0)


class TestAlignedCorrelation:
    def test_same_signal_different_rates(self):
        """A reconstruction on a coarser grid must still score ~100%
        against the dense reference."""
        t_dense = np.linspace(0, 1, 2000)
        ref = np.sin(2 * np.pi * 2 * t_dense) + 2
        t_coarse = np.linspace(0, 1, 100)
        recon = np.sin(2 * np.pi * 2 * t_coarse) + 2
        assert aligned_correlation_percent(recon, ref) > 99.5


class TestAlignedCorrelationBatch:
    @pytest.mark.parametrize(
        "recons, refs, match",
        [
            (np.zeros((2, 8)), np.zeros(16), "references must be 2-D"),
            (np.zeros(8), np.zeros((2, 16)), "need a 2-D"),
            (np.zeros((2, 0)), np.zeros((2, 16)), "cannot resample empty rows"),
            (np.zeros((3, 8)), np.zeros((2, 16)), "shape mismatch"),
            (np.zeros((2, 8)), np.zeros((2, 1)), "at least two samples"),
            (np.zeros((2, 8)), np.zeros((2, 0)), "n_out must be >= 1"),
        ],
        ids=[
            "1d-references", "1d-recons", "empty-rows", "row-mismatch",
            "one-ref-sample", "no-ref-samples",
        ],
    )
    def test_rejects_bad_input(self, recons, refs, match):
        with pytest.raises(ValueError, match=match):
            aligned_correlation_percent_batch(recons, refs)
