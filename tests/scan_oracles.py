"""Per-sample reference loops for the vectorised D-ATC frame scans.

The library runs the Fig. 1 loop (compare against the DAC threshold,
count ones per frame, predict the next level with Eqn. 1 + Listing 1)
as frame-vectorised numpy: ``repro.core.encoders._datc_frames`` for
batches and ``repro.runtime.sessions._session_frames`` for the
multi-session runtime.  The loops below are the same scans written one
clock at a time in plain Python.  They come from the bodies of the
former numba kernel tier (``repro.kernels.datc`` /
``repro.kernels.sessions``), with the predictor arithmetic shared in one
helper, and now serve only as test oracles: the exactness suites hold
the numpy scans to them with ``np.array_equal``.

Exactness contract the loops encode:

* the float predictor uses the reference IEEE op order
  ``((w3*n3 + w2*n2) + w1*n1) / divisor`` for Eqn. (1) and
  ``vref * level / 2**Nb`` for Eqn. (3);
* the quantized (RTL) predictor is integer arithmetic;
* Listing 1's priority encoder is an ascending-ladder scan, identical to
  ``searchsorted(ladder, avr, side="right") - 1`` including duplicate
  ladder entries (rounded quantized ladders repeat values).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DATCConfig
from repro.core.predictor import ThresholdPredictor


class _Constants:
    """The operating point as plain Python scalars."""

    def __init__(self, config: DATCConfig) -> None:
        self.frame_size = config.frame_size
        self.vref = float(config.vref)
        self.n_codes = float(1 << config.dac_bits)
        ladder = ThresholdPredictor(config).interval_ladder
        self.ladder = [float(v) for v in ladder]
        self.min_level = int(config.min_level)
        self.w1, self.w2, self.w3 = (float(w) for w in config.weights)
        self.divisor = float(config.weight_divisor)
        self.quantized = bool(config.quantized)
        if self.quantized:
            fixed = config.fixed_weights()
            self.fw1, self.fw2, self.fw3 = fixed.w1, fixed.w2, fixed.w3
            self.shift = fixed.shift

    def average(self, n3: int, n2: int, n1: int) -> float:
        """Eqn. (1) in the reference op order."""
        if self.quantized:
            acc = self.fw3 * n3 + self.fw2 * n2 + self.fw1 * n1
            return float(acc >> self.shift)
        return (self.w3 * n3 + self.w2 * n2 + self.w1 * n1) / self.divisor

    def select(self, avr: float) -> int:
        """Listing 1: the last ladder entry <= avr, floored at min_level."""
        idx = -1
        for t, entry in enumerate(self.ladder):
            if entry <= avr:
                idx = t
            else:
                break
        return idx if idx > self.min_level else self.min_level


def datc_frames_oracle(x_clk: np.ndarray, config: DATCConfig):
    """The batch scan one clock at a time.

    Same contract as ``_datc_frames``: returns ``(d_in, levels, vth,
    frame_levels, frame_ones, frame_avr)`` with the same dtypes; only
    completed frames update the predictor.
    """
    c = _Constants(config)
    x_clk = np.asarray(x_clk, dtype=float)
    n_signals, n_clocks = x_clk.shape
    n_frames = n_clocks // c.frame_size
    d_in = np.empty((n_signals, n_clocks), dtype=np.uint8)
    levels = np.empty((n_signals, n_clocks), dtype=np.int64)
    vth = np.empty((n_signals, n_clocks), dtype=float)
    frame_levels = np.zeros((n_signals, n_frames), dtype=np.int64)
    frame_ones = np.zeros((n_signals, n_frames), dtype=np.int64)
    frame_avr = np.zeros((n_signals, n_frames), dtype=float)
    for r in range(n_signals):
        n_one1 = n_one2 = 0
        level = int(config.initial_level)
        frame = 0
        k0 = 0
        while k0 < n_clocks:
            k1 = min(k0 + c.frame_size, n_clocks)
            v = c.vref * level / c.n_codes
            ones = 0
            for k in range(k0, k1):
                bit = 1 if x_clk[r, k] > v else 0
                d_in[r, k] = bit
                levels[r, k] = level
                vth[r, k] = v
                ones += bit
            if k1 - k0 == c.frame_size:
                avr = c.average(ones, n_one2, n_one1)
                level = c.select(avr)
                frame_avr[r, frame] = avr
                frame_ones[r, frame] = ones
                frame_levels[r, frame] = level
                n_one1, n_one2 = n_one2, ones
                frame += 1
            k0 = k1
    return d_in, levels, vth, frame_levels, frame_ones, frame_avr


def session_frames_oracle(
    P, navail, emitted, last_bit, n_one1, n_one2, level, config: DATCConfig
):
    """The multi-session scan one clock at a time.

    Same contract as ``_session_frames``: registers are updated in place,
    and the rising-edge events come back row-major as ``(ev_row, ev_clk,
    ev_lvl)`` int64 arrays.
    """
    c = _Constants(config)
    ev_row: "list[int]" = []
    ev_clk: "list[int]" = []
    ev_lvl: "list[int]" = []
    for r in range(P.shape[0]):
        lb, n1, n2 = int(last_bit[r]), int(n_one1[r]), int(n_one2[r])
        lv = int(level[r])
        for f in range(int(navail[r]) // c.frame_size):
            v = c.vref * lv / c.n_codes
            ones = 0
            k0 = f * c.frame_size
            for p in range(c.frame_size):
                bit = 1 if P[r, k0 + p] > v else 0
                if bit == 1:
                    ones += 1
                    if lb == 0:  # rising edge -> one event at this clock
                        ev_row.append(r)
                        ev_clk.append(int(emitted[r]) + k0 + p)
                        ev_lvl.append(lv)
                lb = bit
            lv = c.select(c.average(ones, n2, n1))
            n1, n2 = n2, ones
        last_bit[r], n_one1[r], n_one2[r], level[r] = lb, n1, n2, lv
    return tuple(np.asarray(a, dtype=np.int64) for a in (ev_row, ev_clk, ev_lvl))
