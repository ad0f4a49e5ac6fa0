"""Receiver-side envelope reconstruction from event streams.

Three estimators, matching how the two schemes convey information:

* :func:`reconstruct_rate` — ATC: the smoothed event *rate* is the force
  estimate (the only information a fixed-threshold pulse train carries).
* :func:`reconstruct_levels` — D-ATC: the received 4-bit threshold level
  is itself an amplitude measurement (the DTC servoes ``Vth`` onto the
  signal level), so a zero-order hold of the per-event level voltage,
  with a decay during silences (no events -> signal below the lowest
  threshold), tracks the envelope.
* :func:`reconstruct_hybrid` — D-ATC refined: the level provides the
  coarse (62.5 mV) amplitude and the within-frame event rate adds the
  fine structure between DAC steps.  This is the default D-ATC decoder
  used by the experiments.
"""

from __future__ import annotations

import numpy as np

from ..core.events import EventStream
from ..signals.envelope import moving_average
from .windowing import event_rate, grid_centers, require_positive, stream_bins

__all__ = [
    "reconstruct_rate",
    "reconstruct_levels",
    "reconstruct_hybrid",
    "level_zoh",
    "silence_decay",
    "hybrid_combine",
]


def reconstruct_rate(
    stream: EventStream, fs_out: float = 100.0, window_s: float = 0.25
) -> np.ndarray:
    """ATC decoder: smoothed event rate (arbitrary units ∝ force)."""
    return event_rate(stream, fs_out, window_s=window_s)


def silence_decay(
    level: np.ndarray,
    gap: np.ndarray,
    silence_timeout_s: float,
    decay_tau_s: float,
) -> np.ndarray:
    """Decay held levels once the silence since their event is overdue.

    ``level * exp(-max(gap - silence_timeout_s, 0) / decay_tau_s)``,
    elementwise over ``(..., n_bins)``: ``gap`` is each bin's time since
    the event whose level it holds.
    """
    overdue = np.maximum(gap - silence_timeout_s, 0.0)
    return level * np.exp(-overdue / decay_tau_s)


def hybrid_combine(
    level: np.ndarray, rate: np.ndarray, rate_weight: float, window: int
) -> np.ndarray:
    """The hybrid D-ATC envelope from its level and rate parts.

    Each row of ``rate`` (``(..., n_bins)``) is normalised by its own
    peak (left as is when the peak is 0), scales the level part by
    ``1 - rate_weight + rate_weight * rate_norm``, and the product is
    smoothed over ``window`` bins.
    """
    if rate.shape[-1]:
        peak = rate.max(axis=-1, keepdims=True)
    else:
        peak = np.zeros(rate.shape[:-1] + (1,))
    rate_norm = np.divide(rate, peak, out=rate.copy(), where=peak > 0)
    combined = level * (1.0 - rate_weight + rate_weight * rate_norm)
    return moving_average(combined, window, axis=-1)


def level_zoh(
    stream: EventStream,
    fs_out: float = 100.0,
    vref: float = 1.0,
    dac_bits: int = 4,
    silence_timeout_s: float = 0.5,
    decay_tau_s: float = 0.5,
) -> np.ndarray:
    """Zero-order hold of per-event threshold voltages on a uniform grid.

    Between events the last received level is held; once the silence
    exceeds ``silence_timeout_s`` the estimate decays exponentially with
    ``decay_tau_s`` — no events means the signal sits *below* the current
    threshold, so holding it indefinitely would overestimate rest periods.
    Before the first event the estimate is 0.
    """
    require_positive(
        silence_timeout_s=silence_timeout_s, decay_tau_s=decay_tau_s
    )
    t = grid_centers(stream_bins(stream, fs_out), fs_out)
    if stream.n_events == 0:
        return np.zeros(t.size)
    volts = stream.level_voltages(vref=vref, dac_bits=dac_bits)
    # Index of the latest event at or before each grid point (-1 = none).
    idx = np.searchsorted(stream.times, t, side="right") - 1
    out = np.zeros(t.size)
    valid = idx >= 0
    out[valid] = volts[idx[valid]]
    gap = np.zeros(t.size)
    gap[valid] = t[valid] - stream.times[idx[valid]]
    return silence_decay(out, gap, silence_timeout_s, decay_tau_s)


def reconstruct_levels(
    stream: EventStream,
    fs_out: float = 100.0,
    vref: float = 1.0,
    dac_bits: int = 4,
    smooth_window_s: float = 0.25,
    silence_timeout_s: float = 0.5,
) -> np.ndarray:
    """D-ATC decoder using only the level payload (smoothed ZOH)."""
    zoh = level_zoh(
        stream,
        fs_out,
        vref=vref,
        dac_bits=dac_bits,
        silence_timeout_s=silence_timeout_s,
    )
    window = max(1, int(round(smooth_window_s * fs_out)))
    return moving_average(zoh, window)


def reconstruct_hybrid(
    stream: EventStream,
    fs_out: float = 100.0,
    vref: float = 1.0,
    dac_bits: int = 4,
    smooth_window_s: float = 0.25,
    silence_timeout_s: float = 0.5,
    rate_weight: float = 0.7,
) -> np.ndarray:
    """D-ATC decoder combining level (coarse) and rate (fine) information.

    The level ZOH quantises the envelope to the DAC grid; multiplying by a
    normalised event-rate term restores variation *between* DAC steps
    (within a frame the rate grows with the above-threshold fraction).
    ``rate_weight`` = 0 reduces to :func:`reconstruct_levels`.
    """
    if not 0.0 <= rate_weight <= 1.0:
        raise ValueError(f"rate_weight must be within [0, 1], got {rate_weight}")
    level_part = level_zoh(
        stream,
        fs_out,
        vref=vref,
        dac_bits=dac_bits,
        silence_timeout_s=silence_timeout_s,
    )
    rate = event_rate(stream, fs_out, window_s=smooth_window_s)
    window = max(1, int(round(smooth_window_s * fs_out)))
    return hybrid_combine(level_part, rate, rate_weight, window)
