"""The batched D-ATC frame scan against its per-sample oracle.

``_datc_frames`` (the ``datc_encode_batch`` hot loop) must match the
plain-Python scan in ``tests/scan_oracles.py`` *bit for bit*: both
predictor flavours, ragged final frames, duplicate quantized ladders,
``min_level`` clamping, and the paper's operating point on real patterns.
"""

import numpy as np
import pytest
from scan_oracles import datc_frames_oracle

from repro.core.config import DATCConfig
from repro.core.encoders import _datc_frames, datc_encode_batch
from repro.core.predictor import ThresholdPredictor
from repro.digital.synchronizer import clock_sample_indices


def _signals(n_signals: int, n_clocks: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 4.0, n_clocks, endpoint=False)
    base = np.abs(np.sin(2 * np.pi * 3.0 * t))[None, :]
    return np.abs(
        base * rng.uniform(0.2, 1.0, (n_signals, 1))
        + 0.05 * rng.standard_normal((n_signals, n_clocks))
    )


def _assert_frames_equal(ref, out):
    names = (
        "d_in", "levels", "vth", "frame_levels", "frame_ones", "frame_avr"
    )
    for name, a, b in zip(names, ref, out):
        assert a.dtype == b.dtype, f"{name} dtype {b.dtype} != {a.dtype}"
        assert a.shape == b.shape, f"{name} shape {b.shape} != {a.shape}"
        np.testing.assert_array_equal(b, a, err_msg=f"{name} diverged")


class TestDATCFrameScanExact:
    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("frame_size", [5, 7, 100])
    @pytest.mark.parametrize("min_level", [0, 1])
    def test_bit_exact_across_operating_points(
        self, quantized, frame_size, min_level
    ):
        config = DATCConfig(
            quantized=quantized,
            frame_sizes=(frame_size,),
            frame_selector=0,
            min_level=min_level,
        )
        # n_clocks sweeps zero frames, exact multiples and ragged tails.
        for n_clocks in (3, frame_size, 3 * frame_size + 2, 257):
            x = _signals(4, n_clocks)
            _assert_frames_equal(
                datc_frames_oracle(x, config), _datc_frames(x, config)
            )

    def test_duplicate_quantized_ladder_entries(self):
        # frame_size=5 rounds Eqn. (2)'s levels to repeated integers; the
        # searchsorted select must pick the same (last) duplicate as the
        # oracle's ascending ladder scan.
        config = DATCConfig(quantized=True, frame_sizes=(5,), frame_selector=0)
        ladder = ThresholdPredictor(config).interval_ladder
        assert len(set(ladder)) < len(ladder), "fixture lost its duplicates"
        x = _signals(6, 251, seed=11)
        _assert_frames_equal(datc_frames_oracle(x, config), _datc_frames(x, config))

    def test_paper_defaults_on_real_patterns(self, small_dataset):
        patterns = [small_dataset.pattern(i) for i in range(4)]
        fs = patterns[0].fs
        signals = np.stack([p.emg for p in patterns])
        for config in (DATCConfig(), DATCConfig(quantized=True)):
            edge_idx = clock_sample_indices(
                signals.shape[1], fs, config.clock_hz
            )
            d_in, levels, vth, _, _, frame_avr = datc_frames_oracle(
                np.abs(signals)[:, edge_idx], config
            )
            out = datc_encode_batch(signals, fs, config)
            for r, (stream, trace) in enumerate(out):
                np.testing.assert_array_equal(trace.d_in, d_in[r])
                np.testing.assert_array_equal(trace.levels, levels[r])
                np.testing.assert_array_equal(trace.vth, vth[r])
                np.testing.assert_array_equal(trace.frame_avr, frame_avr[r])
                rising = np.flatnonzero(
                    np.diff(d_in[r].astype(np.int8), prepend=0) == 1
                )
                np.testing.assert_array_equal(stream.levels, levels[r, rising])
