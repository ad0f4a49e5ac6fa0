"""The D-ATC Predictor: frame-history weighted average -> threshold level.

Implements paper Eqn. (1) / Listing 1 as a small stateful object shared by
the behavioural encoder.  Two arithmetic flavours:

* **float** — the exact weighted average of the Matlab reference,
  ``AVR = (W_F3*N3 + W_F2*N2 + W_F1*N1) / weight_divisor``;
* **quantized** — the Q8 integer datapath of the synthesized RTL
  (identical to :class:`repro.digital.dtc_rtl.DTCRtl`).

The history update ``N_one1 <- N_one2 <- N_one3`` happens inside
:meth:`ThresholdPredictor.update`.  :class:`BatchPredictor` is the same
step vectorised across rows, shared by the batched encoder and the
multi-session runtime.
"""

from __future__ import annotations

import numpy as np

from ..digital.fixed_point import FixedWeights
from .config import DATCConfig
from .intervals import interval_levels_float, select_level

__all__ = ["ThresholdPredictor", "BatchPredictor"]


class ThresholdPredictor:
    """Stateful per-frame threshold-level predictor.

    Parameters
    ----------
    config:
        The D-ATC configuration (weights, intervals, levels, arithmetic
        flavour all come from it).
    """

    def __init__(self, config: DATCConfig):
        self.config = config
        self._weights = config.weights
        self._divisor = config.weight_divisor
        self._fixed: "FixedWeights | None" = (
            config.fixed_weights() if config.quantized else None
        )
        if config.quantized:
            self._levels = tuple(
                int(round(v))
                for v in interval_levels_float(
                    config.frame_size, config.n_levels, config.interval_step
                )
            )
        else:
            self._levels = interval_levels_float(
                config.frame_size, config.n_levels, config.interval_step
            )
        # History of per-frame ones counts, oldest first: (N_one1, N_one2).
        # N_one3 is supplied to update() as the just-finished frame.
        self._n_one1 = 0
        self._n_one2 = 0
        self._level = config.initial_level

    @property
    def level(self) -> int:
        """The current threshold level (``Set_Vth``)."""
        return self._level

    @property
    def interval_ladder(self) -> "tuple[float, ...] | tuple[int, ...] | np.ndarray":
        """The ascending Eqn. (2) interval ladder this predictor selects from.

        Integers in quantized mode, floats otherwise.  Shared with the
        row-vectorised batch predictor so both select levels from the
        identical ladder.
        """
        return self._levels

    @property
    def vth(self) -> float:
        """The current threshold voltage (Eqn. 3)."""
        return self.config.level_to_voltage(self._level)

    @property
    def history(self) -> "tuple[int, int]":
        """(N_one1, N_one2): the two retained previous-frame counts."""
        return (self._n_one1, self._n_one2)

    def average(self, n_one3: int) -> float:
        """Eqn. (1) weighted average with the just-finished frame count."""
        if n_one3 < 0 or n_one3 > self.config.frame_size:
            raise ValueError(
                f"n_one3 must be within [0, frame_size={self.config.frame_size}], "
                f"got {n_one3}"
            )
        if self._fixed is not None:
            return float(self._fixed.average(self._n_one1, self._n_one2, n_one3))
        w1, w2, w3 = self._weights
        return (w3 * n_one3 + w2 * self._n_one2 + w1 * self._n_one1) / self._divisor

    def update(self, n_one3: int) -> int:
        """End-of-frame step: compute AVR, pick the level, shift history.

        Returns the new ``Set_Vth`` level, which applies from the first
        clock of the next frame.
        """
        avr = self.average(n_one3)
        self._level = select_level(avr, self._levels, self.config.min_level)
        self._n_one1 = self._n_one2
        self._n_one2 = int(n_one3)
        return self._level

    def reset(self) -> None:
        """Return to the reset state (history cleared, initial level)."""
        self._n_one1 = 0
        self._n_one2 = 0
        self._level = self.config.initial_level

    def steady_state_level(self, duty: float) -> int:
        """Level the predictor converges to for a constant duty cycle.

        For a stationary input with fraction ``duty`` of ones per frame
        the weighted average equals ``duty * frame_size`` (the weights sum
        to ``weight_divisor``), so convergence is a pure Eqn. (2) lookup.
        Used by convergence tests and the design-space benches.
        """
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be within [0, 1], got {duty}")
        n = duty * self.config.frame_size
        levels = np.asarray(self._levels, dtype=float)
        return select_level(float(n), levels, self.config.min_level)


class BatchPredictor:
    """Row-vectorised :class:`ThresholdPredictor`: one history per row.

    Each row's arithmetic is bit-identical to a scalar predictor —
    identical IEEE ops for the float flavour, identical integer shift for
    the quantized (RTL) flavour, and the Listing 1 priority encoder
    becomes a ``searchsorted`` on the shared ascending interval ladder.

    ``registers`` — ``(n_one1, n_one2, level)`` int64 arrays — resumes
    carried per-row state; by default every row starts from reset.
    """

    def __init__(
        self,
        config: DATCConfig,
        n_rows: int,
        registers: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        self._ladder = np.asarray(ThresholdPredictor(config).interval_ladder)
        self._min_level = config.min_level
        self._weights = config.weights
        self._divisor = config.weight_divisor
        self._fixed = config.fixed_weights() if config.quantized else None
        self._vref = config.vref
        self._n_codes = float(1 << config.dac_bits)
        if registers is None:
            self.n_one1 = np.zeros(n_rows, dtype=np.int64)
            self.n_one2 = np.zeros(n_rows, dtype=np.int64)
            self.level = np.full(n_rows, config.initial_level, dtype=np.int64)
        else:
            self.n_one1, self.n_one2, self.level = registers

    def vth(self) -> np.ndarray:
        """Eqn. (3) per row, in the scalar ``(vref * level) / 2**Nb`` op order."""
        return self._vref * self.level.astype(float) / self._n_codes

    def average(self, n_one3: np.ndarray) -> np.ndarray:
        """Eqn. (1) weighted average per row (float64)."""
        if self._fixed is not None:
            f = self._fixed
            acc = f.w3 * n_one3 + f.w2 * self.n_one2 + f.w1 * self.n_one1
            return (acc >> f.shift).astype(float)
        w1, w2, w3 = self._weights
        return (w3 * n_one3 + w2 * self.n_one2 + w1 * self.n_one1) / self._divisor

    def update(
        self, n_one3: np.ndarray, live: "np.ndarray | None" = None
    ) -> np.ndarray:
        """End-of-frame step; returns the pre-update AVRs.

        ``live`` (a boolean row mask) restricts the step to rows that
        completed a frame; the other rows keep their registers.
        """
        avr = self.average(n_one3)
        idx = np.searchsorted(self._ladder, avr, side="right") - 1
        level = np.maximum(idx, self._min_level).astype(np.int64)
        n_one3 = n_one3.astype(np.int64)
        if live is None:
            self.level, self.n_one1, self.n_one2 = level, self.n_one2, n_one3
        else:
            self.level = np.where(live, level, self.level)
            self.n_one1 = np.where(live, self.n_one2, self.n_one1)
            self.n_one2 = np.where(live, n_one3, self.n_one2)
        return avr
