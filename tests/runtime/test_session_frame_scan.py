"""The multi-session D-ATC frame scan against its per-sample oracle.

``_session_frames`` (the scan under ``SessionBatch.push_many``) must be
*bit-exact* against the plain-Python scan in ``tests/scan_oracles.py`` —
same events, same order, same in-place register updates — for both
predictor flavours and several frame sizes.
"""

import numpy as np
import pytest
from scan_oracles import session_frames_oracle

from repro.core.config import DATCConfig
from repro.runtime.sessions import _session_frames


def random_state(rng, config, k=9):
    """A random packed push: frame matrix + registers, scalar-reachable."""
    frame_size = config.frame_size
    k_max = 3 * frame_size + 7
    P = np.abs(rng.normal(0, 0.3, size=(k, frame_size + k_max)))
    navail = rng.integers(0, frame_size + k_max, size=k).astype(np.int64)
    emitted = rng.integers(0, 100_000, size=k).astype(np.int64)
    regs = (
        rng.integers(0, 2, size=k).astype(np.int64),  # last_bit
        rng.integers(0, frame_size + 1, size=k).astype(np.int64),  # n_one1
        rng.integers(0, frame_size + 1, size=k).astype(np.int64),  # n_one2
        rng.integers(
            config.min_level, config.n_levels, size=k
        ).astype(np.int64),  # level
    )
    return P, navail, emitted, regs


@pytest.mark.parametrize(
    "config",
    [
        DATCConfig(),
        DATCConfig(quantized=True),
        DATCConfig(frame_selector=2),
        DATCConfig(frame_selector=3, quantized=True),
    ],
)
def test_session_scan_bit_exact_vs_oracle(config):
    rng = np.random.default_rng(42)
    for _ in range(5):
        P, navail, emitted, regs = random_state(rng, config)
        regs_np = tuple(r.copy() for r in regs)
        regs_or = tuple(r.copy() for r in regs)
        out_np = _session_frames(P, navail, emitted.copy(), *regs_np, config)
        out_or = session_frames_oracle(
            P, navail, emitted.copy(), *regs_or, config
        )
        for a, b in zip(out_or, out_np):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        for a, b in zip(regs_or, regs_np):  # in-place register updates
            assert np.array_equal(a, b)


def test_events_are_row_major_sorted():
    rng = np.random.default_rng(7)
    config = DATCConfig()
    P, navail, emitted, regs = random_state(rng, config)
    ev_row, ev_clk, _ = _session_frames(P, navail, emitted, *regs, config)
    assert np.all(np.diff(ev_row) >= 0)
    same_row = np.diff(ev_row) == 0
    assert np.all(np.diff(ev_clk)[same_row] > 0)
