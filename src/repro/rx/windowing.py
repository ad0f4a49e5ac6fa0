"""Moving-window event-rate estimators (the receiver's "low-complexity
windowing" used to recover force information from ATC pulse trains), plus
the shared output-grid helpers every reconstructor works on.

All receiver-side estimators share one uniform output grid: ``n`` bins of
``1 / fs_out`` seconds covering ``[0, n / fs_out]``.  The helpers here are
the single source of truth for that grid — :mod:`repro.rx.reconstruction`
and the batched engine (:mod:`repro.rx.decoders`) both build on them.

Zero-duration and empty streams (legal since the incremental
``StreamingEncoder`` produces them before its first whole clock period)
yield *empty* output arrays; an error is raised only when a stream carries
events that the requested grid cannot represent.
"""

from __future__ import annotations

import numpy as np

from ..core.events import EventStream
from ..signals.envelope import moving_average

__all__ = [
    "require_positive",
    "stream_bins",
    "fold_final_bins",
    "grid_edges",
    "grid_centers",
    "binned_counts",
    "event_rate",
    "exponential_rate",
]


def require_positive(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is not > 0."""
    for name, value in params.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def stream_bins(stream: EventStream, fs_out: float) -> int:
    """Number of output bins for ``stream`` on a ``fs_out`` grid.

    ``floor(duration * fs_out)`` — zero for zero-duration or too-short
    *empty* streams (the caller then returns empty arrays), but an error
    when events exist that no grid bin could hold.
    """
    if fs_out <= 0:
        raise ValueError(f"fs_out must be positive, got {fs_out}")
    n = int(np.floor(stream.duration_s * fs_out))
    if n == 0 and stream.n_events:
        raise ValueError("duration too short for the requested output rate")
    return n


def grid_edges(n_bins: int, fs_out: float) -> np.ndarray:
    """Bin edges of the uniform output grid: ``k / fs_out`` for k in 0..n."""
    return np.arange(n_bins + 1) / fs_out


def grid_centers(n_bins: int, fs_out: float) -> np.ndarray:
    """Bin centres of the uniform output grid."""
    return (np.arange(n_bins) + 0.5) / fs_out


def fold_final_bins(
    counts: np.ndarray, times: np.ndarray, edges: np.ndarray
) -> None:
    """Add ``times`` to ``counts`` in place on a grid that stops growing.

    ``edges`` are the grid's ``n + 1`` edges and ``counts`` its ``n``
    bins.  Bins are left-closed except the last, which also takes an
    event exactly on the final edge (``np.histogram``'s rule); events
    outside the grid are dropped.  The streaming decoders fold their
    still-pending events through here once the grid is final.
    """
    n = edges.size - 1
    if n == 0:
        raise ValueError("duration too short for the requested output rate")
    idx = np.searchsorted(edges, times, side="right") - 1
    idx[times == edges[-1]] = n - 1
    inside = (idx >= 0) & (idx < n)
    if np.any(inside):
        counts += np.bincount(idx[inside], minlength=n)


def binned_counts(stream: EventStream, fs_out: float) -> np.ndarray:
    """Event counts in uniform bins of ``1 / fs_out`` seconds.

    Returns an integer array of length ``floor(duration * fs_out)`` (the
    uniform grid every reconstructor works on); empty for empty
    zero-duration streams.
    """
    n = stream_bins(stream, fs_out)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    counts, _ = np.histogram(stream.times, bins=grid_edges(n, fs_out))
    return counts


def event_rate(stream: EventStream, fs_out: float, window_s: float = 0.25) -> np.ndarray:
    """Smoothed instantaneous event rate (Hz) on a uniform grid.

    Bin the events at ``fs_out`` and average over a centred window of
    ``window_s`` seconds — the classic ATC force decoder.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    counts = binned_counts(stream, fs_out)
    window = max(1, int(round(window_s * fs_out)))
    return moving_average(counts.astype(float), window) * fs_out


def exponential_rate(stream: EventStream, fs_out: float, tau_s: float = 0.25) -> np.ndarray:
    """Causal exponentially-smoothed event rate (Hz).

    A first-order (leaky integrator) alternative to the moving window —
    the cheapest hardware-friendly decoder.  The recurrence
    ``acc[i] = beta * acc[i-1] + alpha * c[i]`` is evaluated with a
    vectorised logarithmic prefix scan (``log2(n)`` whole-array passes)
    instead of a per-sample Python loop; the scan only ever multiplies by
    ``beta**s <= 1``, so it is overflow-free for arbitrarily long streams
    and agrees with the sequential recurrence to ~1e-15 relative.
    """
    if tau_s <= 0:
        raise ValueError(f"tau_s must be positive, got {tau_s}")
    counts = binned_counts(stream, fs_out).astype(float)
    alpha = 1.0 - np.exp(-1.0 / (tau_s * fs_out))
    beta = 1.0 - alpha
    out = alpha * counts
    step = 1
    while step < out.size:
        out[step:] += (beta ** step) * out[:-step]
        step *= 2
    return out * fs_out
