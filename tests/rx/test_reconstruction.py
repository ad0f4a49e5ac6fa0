"""Tests for receiver-side envelope reconstruction."""

import numpy as np
import pytest

from repro.core.datc import datc_encode
from repro.core.events import EventStream
from repro.runtime.sessions import SessionSpec
from repro.rx.correlation import aligned_correlation_percent
from repro.rx.decoders import StreamingDecoder, level_zoh_batch, reconstruct_batch
from repro.rx.reconstruction import (
    hybrid_combine,
    level_zoh,
    reconstruct_hybrid,
    reconstruct_levels,
    reconstruct_rate,
    silence_decay,
)


def level_stream(times, levels, duration=10.0):
    return EventStream(
        times=np.asarray(times, dtype=float),
        duration_s=duration,
        levels=np.asarray(levels, dtype=np.int64),
        symbols_per_event=5,
    )


class TestLevelZoh:
    def test_holds_last_level(self):
        s = level_stream([1.0, 5.0], [4, 8])
        z = level_zoh(s, fs_out=10.0, silence_timeout_s=100.0)
        # Between 1 s and 5 s: level 4 -> 0.25 V; after 5 s: 0.5 V.
        assert z[25] == pytest.approx(4 / 16)
        assert z[75] == pytest.approx(8 / 16)

    def test_zero_before_first_event(self):
        s = level_stream([5.0], [8])
        z = level_zoh(s, fs_out=10.0)
        assert np.all(z[:49] == 0.0)

    def test_silence_decay(self):
        s = level_stream([1.0], [15], duration=20.0)
        z = level_zoh(s, fs_out=10.0, silence_timeout_s=0.5, decay_tau_s=0.5)
        assert z[12] == pytest.approx(15 / 16)      # inside hold window
        assert z[-1] < 0.01                          # decayed long after

    def test_empty_stream_zero(self):
        s = EventStream(
            times=np.zeros(0), duration_s=10.0,
            levels=np.zeros(0, dtype=np.int64), symbols_per_event=5,
        )
        assert np.all(level_zoh(s) == 0.0)


class TestEnvelopeArithmetic:
    def test_silence_decay_holds_then_decays(self):
        gap = np.array([[0.0, 0.5, 1.0], [0.2, 1.5, 3.0]])
        out = silence_decay(np.ones_like(gap), gap, 0.5, 0.5)
        assert out[0, :2].tolist() == [1.0, 1.0]
        assert out[0, 2] == pytest.approx(np.exp(-1.0))
        assert out[1, 2] == pytest.approx(np.exp(-5.0))

    def test_hybrid_combine_rows_match_one_dimensional(self, rng):
        level = rng.uniform(0, 1, (3, 50))
        rate = rng.uniform(0, 20, (3, 50))
        rate[1] = 0.0  # a silent row keeps the level part unscaled by rate
        batch = hybrid_combine(level, rate, 0.7, 5)
        for r in range(3):
            row = hybrid_combine(level[r], rate[r], 0.7, 5)
            assert np.array_equal(batch[r], row)
        assert np.allclose(
            batch[1], hybrid_combine(level[1], np.zeros(50), 0.0, 5) * 0.3
        )

    def test_hybrid_combine_empty_grid(self):
        out = hybrid_combine(np.zeros((2, 0)), np.zeros((2, 0)), 0.7, 3)
        assert out.shape == (2, 0)


class TestReconstructors:
    def test_rate_reconstruction_positive(self, mid_pattern):
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        r = reconstruct_rate(stream)
        assert np.all(r >= 0)

    def test_levels_reconstruction_tracks_envelope(self, mid_pattern):
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        recon = reconstruct_levels(stream)
        ref = mid_pattern.ground_truth_envelope()
        assert aligned_correlation_percent(recon, ref) > 85.0

    def test_hybrid_beats_or_matches_components(self, mid_pattern):
        """The hybrid decoder must not be worse than both of its parts."""
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        ref = mid_pattern.ground_truth_envelope()
        c_level = aligned_correlation_percent(reconstruct_levels(stream), ref)
        c_rate = aligned_correlation_percent(reconstruct_rate(stream), ref)
        c_hybrid = aligned_correlation_percent(reconstruct_hybrid(stream), ref)
        assert c_hybrid >= min(c_level, c_rate) - 1.0
        assert c_hybrid > 90.0

    def test_hybrid_rate_weight_zero_matches_levels(self, mid_pattern):
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        a = reconstruct_hybrid(stream, rate_weight=0.0)
        b = reconstruct_levels(stream)
        assert np.allclose(a, b)

    def test_invalid_rate_weight(self, mid_pattern):
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        with pytest.raises(ValueError):
            reconstruct_hybrid(stream, rate_weight=1.5)

    def test_robust_to_event_loss(self, mid_pattern, rng):
        """Dropping 10% of events must barely dent the correlation — the
        paper's artifact-robustness argument."""
        stream, _ = datc_encode(mid_pattern.emg, mid_pattern.fs)
        ref = mid_pattern.ground_truth_envelope()
        full = aligned_correlation_percent(reconstruct_hybrid(stream), ref)
        keep = rng.random(stream.n_events) >= 0.1
        degraded = aligned_correlation_percent(
            reconstruct_hybrid(stream.drop_events(keep)), ref
        )
        assert degraded > full - 3.0


class TestTimeConstantValidation:
    """Every decoder rejects non-positive time constants the way
    ``SessionSpec`` does, instead of returning NaN or growing levels."""

    @pytest.fixture
    def stream(self):
        return level_stream([0.3, 0.6], [6, 6], duration=2.0)

    BAD = [0.0, -0.5]

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("name", ["silence_timeout_s", "decay_tau_s"])
    def test_level_zoh(self, stream, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            level_zoh(stream, **{name: value})

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("name", ["silence_timeout_s", "decay_tau_s"])
    def test_level_zoh_batch(self, stream, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            level_zoh_batch([stream, stream], **{name: value})

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize(
        "decode",
        [reconstruct_levels, reconstruct_hybrid],
        ids=lambda f: f.__name__,
    )
    def test_one_shot_decoders(self, stream, decode, value):
        with pytest.raises(ValueError, match="silence_timeout_s must be positive"):
            decode(stream, silence_timeout_s=value)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("scheme", ["atc", "datc"])
    def test_reconstruct_batch(self, stream, scheme, value):
        with pytest.raises(ValueError, match="silence_timeout_s must be positive"):
            reconstruct_batch([stream], scheme, silence_timeout_s=value)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("name", ["silence_timeout_s", "decay_tau_s"])
    @pytest.mark.parametrize("scheme", ["atc", "datc"])
    def test_streaming_decoder(self, scheme, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            StreamingDecoder(scheme, **{name: value})

    def test_messages_match_session_spec(self):
        for name in ("silence_timeout_s", "decay_tau_s"):
            with pytest.raises(ValueError) as spec_error:
                SessionSpec(**{name: 0.0})
            with pytest.raises(ValueError) as decoder_error:
                StreamingDecoder(**{name: 0.0})
            assert str(decoder_error.value) == str(spec_error.value)
