"""Property-based tests (hypothesis) for the batched D-ATC frame scan.

``_datc_frames`` must equal the per-sample oracle in
``tests/scan_oracles.py`` *bit for bit* on arbitrary operating points —
both predictor flavours, ragged final frames, ``min_level`` clamping.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_oracles import datc_frames_oracle

from repro.core.config import DATCConfig
from repro.core.encoders import _datc_frames

# Small-but-irregular operating points: tiny frames maximise predictor
# updates (and quantized-ladder duplicates) per generated sample.
datc_configs = st.builds(
    lambda fsz, quantized, min_level, initial_level: DATCConfig(
        frame_sizes=(fsz,),
        frame_selector=0,
        quantized=quantized,
        min_level=min_level,
        # config validation requires initial_level in [min_level, 16)
        initial_level=max(min_level, initial_level),
    ),
    fsz=st.integers(2, 12),
    quantized=st.booleans(),
    min_level=st.integers(0, 3),
    initial_level=st.integers(1, 15),
)


def _clocked(seed: int, n_signals: int, n_clocks: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal((n_signals, n_clocks)))


class TestDATCKernelExactness:
    @given(
        config=datc_configs,
        seed=st.integers(0, 2**16),
        n_signals=st.integers(1, 5),
        n_clocks=st.integers(1, 120),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_oracle(self, config, seed, n_signals, n_clocks):
        x = _clocked(seed, n_signals, n_clocks)
        ref = datc_frames_oracle(x, config)
        out = _datc_frames(x, config)
        for a, b in zip(ref, out):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(b, a)

    @given(config=datc_configs, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_ragged_tail_never_updates_predictor(self, config, seed):
        """A final partial frame changes d_in only — frame outputs match
        the truncated whole-frame input exactly."""
        fsz = config.frame_size
        x = _clocked(seed, 2, 3 * fsz + fsz // 2)  # fsz//2 in [1, fsz)
        whole = x[:, : 3 * fsz]
        out_full = _datc_frames(x, config)
        out_whole = _datc_frames(whole, config)
        for full, trunc in zip(out_full[3:], out_whole[3:]):
            np.testing.assert_array_equal(full, trunc)

    @given(config=datc_configs, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_levels_respect_min_level_floor(self, config, seed):
        x = _clocked(seed, 2, 8 * config.frame_size)
        _, levels, _, frame_levels, _, _ = _datc_frames(x, config)
        assert np.all(frame_levels >= config.min_level)
        # per-clock levels mix initial_level with predictor outputs
        assert np.all(levels >= min(config.min_level, config.initial_level))
