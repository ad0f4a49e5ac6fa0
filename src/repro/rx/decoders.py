"""Batched + streaming receiver engine — the RX mirror of
:mod:`repro.core.encoders`.

The paper's figure of merit ("% correlation w.r.t. raw muscle force") is
computed on the receiver, and the per-stream decoders in
:mod:`repro.rx.reconstruction` / :mod:`repro.rx.windowing` process one
:class:`~repro.core.events.EventStream` at a time.  This module provides
the two scaling paths on top of the same maths:

Batching
--------
:func:`reconstruct_batch` decodes many streams that share one observation
window in a handful of whole-matrix numpy calls: all streams' events are
binned with a single ``np.bincount`` over ``(stream, bin)`` pairs
(:func:`binned_counts_batch`), smoothing runs as one axis-aware
:func:`~repro.signals.envelope.moving_average` over the
``(n_streams, n_bins)`` matrix, and the level ZOH is a ``searchsorted``
per row with the decay applied to the whole matrix at once.  Scoring
pairs with :func:`repro.rx.correlation.pearson_batch` /
:func:`~repro.rx.correlation.aligned_correlation_percent_batch` so a whole
batch is correlated against a stacked reference matrix in one call.
Per-row results are **bit-identical** to the per-stream functions.

Streaming
---------
:class:`StreamingDecoder` is the receive-side counterpart of
:class:`~repro.core.encoders.StreamingEncoder`: feed it the incremental
``EventStream`` chunks that ``StreamingEncoder.push`` emits and it folds
events into per-bin state (counts, level ZOH) as they arrive, carrying the
residual bin and the smoothing-window tail across chunks.  The
concatenation of every ``push()`` return plus ``finalize()`` is
bit-identical to the one-shot decoder on the merged stream:

* ``scheme="atc"`` (event-rate decoding) emits eagerly — each ``push``
  returns the envelope samples that became final, about half a smoothing
  window behind the newest event.
* ``scheme="datc"`` (hybrid decoding) still ingests incrementally — events
  are reduced to O(n_bins) state on arrival, not stored — but emits only
  at ``finalize()``: the hybrid estimator normalises its rate term by the
  *global* rate peak, which no causal decoder can know early.
"""

from __future__ import annotations

import numpy as np

from ..core.config import ATCConfig, DATCConfig
from ..core.events import EventStream
from ..signals.envelope import moving_average
from .reconstruction import hybrid_combine, silence_decay
from .windowing import (
    fold_final_bins,
    grid_centers,
    grid_edges,
    require_positive,
    stream_bins,
)

__all__ = [
    "StreamingDecoder",
    "reconstruct_batch",
    "binned_counts_batch",
    "event_rate_batch",
    "level_zoh_batch",
    "stream_chunks",
]


def stream_chunks(stream: EventStream, bounds) -> "list[EventStream]":
    """Split a one-shot stream into incremental ``push()`` chunks.

    ``bounds`` are the ascending chunk end times; the last must equal
    ``stream.duration_s``.  Chunk *k* carries the events in
    ``[bounds[k-1], bounds[k])`` — right-closed on the final chunk so an
    event at the stream's end time is still delivered — with
    ``duration_s = bounds[k]``: exactly the incremental contract
    ``StreamingEncoder.push`` produces and ``StreamingDecoder.push``
    expects.  The boundary rules are load-bearing for the chunked ==
    one-shot bit-identity, so every chunker (CLI bench, tests) shares
    this helper.
    """
    bounds = [float(b) for b in bounds]
    if not bounds or bounds[-1] != stream.duration_s:
        raise ValueError(
            f"bounds must end at stream.duration_s ({stream.duration_s}), "
            f"got {bounds[-1] if bounds else 'no bounds'}"
        )
    out, start = [], 0.0
    for stop in bounds:
        last = stop >= stream.duration_s
        mask = (stream.times >= start) & (
            (stream.times <= stop) if last else (stream.times < stop)
        )
        out.append(
            EventStream(
                times=stream.times[mask],
                duration_s=stop,
                levels=stream.levels[mask] if stream.has_levels else None,
                clock_hz=stream.clock_hz,
                symbols_per_event=stream.symbols_per_event,
            )
        )
        start = stop
    return out


def _batch_grid(streams, fs_out: float) -> "tuple[list[EventStream], int]":
    """Validate a homogeneous batch; return (streams, shared bin count)."""
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one stream")
    duration = streams[0].duration_s
    for s in streams[1:]:
        if s.duration_s != duration:
            raise ValueError(
                "all streams must share duration_s for batched decoding, got "
                f"{s.duration_s} vs {duration}"
            )
    n = 0
    for s in streams:
        n = stream_bins(s, fs_out)  # raises for events no grid bin can hold
    return streams, n


def binned_counts_batch(streams, fs_out: float) -> np.ndarray:
    """Per-stream event counts on the shared grid: ``(n_streams, n_bins)``.

    One ``np.bincount`` over flattened ``(stream, bin)`` pairs replaces
    ``n_streams`` :func:`repro.rx.windowing.binned_counts` calls; rows are
    bit-identical (the bin assignment reproduces ``np.histogram``'s
    left-inclusive rule with the last bin closed on the right).
    """
    streams, n = _batch_grid(streams, fs_out)
    n_streams = len(streams)
    if n == 0:
        return np.zeros((n_streams, 0), dtype=np.intp)
    sizes = np.array([s.n_events for s in streams], dtype=np.intp)
    if sizes.sum() == 0:
        return np.zeros((n_streams, n), dtype=np.intp)
    edges = grid_edges(n, fs_out)
    times = np.concatenate([s.times for s in streams])
    rows = np.repeat(np.arange(n_streams), sizes)
    # O(1)-per-event bin assignment (the trick behind np.histogram's
    # uniform fast path): multiply out the approximate bin, then correct
    # by at most one step against the true edge values, so the result
    # satisfies exactly edges[idx] <= t < edges[idx+1].
    idx = np.clip((times * fs_out).astype(np.intp), 0, n - 1)
    idx -= times < edges[idx]
    idx += times >= edges[np.minimum(idx + 1, n)]
    idx[times == edges[-1]] = n - 1  # histogram's right-closed last bin
    valid = (idx >= 0) & (idx < n)
    if valid.all():  # common case: skip the boolean gathers
        flat = rows * n + idx
    else:
        flat = rows[valid] * n + idx[valid]
    counts = np.bincount(flat, minlength=n_streams * n)
    return counts.reshape(n_streams, n).astype(np.intp, copy=False)


def event_rate_batch(
    streams, fs_out: float, window_s: float = 0.25
) -> np.ndarray:
    """Smoothed event rate (Hz) for every stream: ``(n_streams, n_bins)``.

    The batched form of :func:`repro.rx.windowing.event_rate` (the ATC
    decoder): one binning pass, one axis-aware moving average.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    counts = binned_counts_batch(streams, fs_out)
    window = max(1, int(round(window_s * fs_out)))
    return moving_average(counts.astype(float), window, axis=-1) * fs_out


def _per_row(value, n_streams: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-stream sequence to one value per row."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (n_streams,))
    if arr.shape != (n_streams,):
        raise ValueError(
            f"{name} must be a scalar or one value per stream "
            f"({n_streams}), got shape {arr.shape}"
        )
    return arr


def level_zoh_batch(
    streams,
    fs_out: float = 100.0,
    vref=1.0,
    dac_bits=4,
    silence_timeout_s: float = 0.5,
    decay_tau_s: float = 0.5,
) -> np.ndarray:
    """Batched :func:`repro.rx.reconstruction.level_zoh`.

    The per-row latest-event lookup stays a ``searchsorted`` per stream
    (rows have ragged event counts), but the hold/decay arithmetic runs on
    the whole ``(n_streams, n_bins)`` matrix in single numpy ops.

    ``vref`` and ``dac_bits`` may be scalars (one decode config for the
    whole batch) or per-stream sequences of length ``n_streams`` — the
    hook that lets heterogeneous-DAC sweeps (each row decoded at its own
    resolution) share one batched call.  Rows stay bit-identical to the
    per-stream decoder either way.
    """
    require_positive(
        silence_timeout_s=silence_timeout_s, decay_tau_s=decay_tau_s
    )
    streams, n = _batch_grid(streams, fs_out)
    n_streams = len(streams)
    vref = _per_row(vref, n_streams, "vref")
    dac_bits = _per_row(dac_bits, n_streams, "dac_bits")
    t = grid_centers(n, fs_out)
    if not any(s.n_events for s in streams):
        return np.zeros((n_streams, n))
    # The latest-event lookup is a searchsorted per row (rows have ragged,
    # independently sorted event times); everything after runs as
    # whole-matrix ops on gathers from the concatenated event arrays.
    idx = np.full((n_streams, n), -1, dtype=np.intp)
    for r, stream in enumerate(streams):
        if stream.n_events:
            idx[r] = np.searchsorted(stream.times, t, side="right") - 1
    times_all = np.concatenate([s.times for s in streams])
    volts_all = np.concatenate(
        [
            s.level_voltages(vref=float(vref[r]), dac_bits=int(dac_bits[r]))
            if s.n_events
            else np.zeros(0)
            for r, s in enumerate(streams)
        ]
    )
    offsets = np.concatenate(
        [[0], np.cumsum([s.n_events for s in streams])[:-1]]
    ).astype(np.intp)
    # Clipped gather + mask multiply instead of boolean fancy indexing;
    # bit-identical (threshold voltages are non-negative, so masked
    # entries come out exactly 0.0) and considerably cheaper.
    valid = (idx >= 0).astype(float)
    # The min keeps an all-empty final row's (masked-out) gather in range.
    clipped = np.minimum(np.maximum(idx, 0) + offsets[:, None], times_all.size - 1)
    gap = (t - times_all[clipped]) * valid
    return silence_decay(
        volts_all[clipped] * valid, gap, silence_timeout_s, decay_tau_s
    )


def reconstruct_batch(
    streams,
    scheme: str = "datc",
    config: "ATCConfig | DATCConfig | None" = None,
    fs_out: float = 100.0,
    window_s: float = 0.25,
    silence_timeout_s: float = 0.5,
    rate_weight: float = 0.7,
    vref=None,
    dac_bits=None,
) -> np.ndarray:
    """Decode a homogeneous batch of streams to an envelope matrix.

    The batched receiver: ``scheme="atc"`` applies the event-rate decoder
    (:func:`~repro.rx.reconstruction.reconstruct_rate`), ``"datc"`` the
    hybrid level+rate decoder
    (:func:`~repro.rx.reconstruction.reconstruct_hybrid`) with
    ``config``'s ``vref`` / ``dac_bits``.  Returns ``(n_streams, n_bins)``
    with every row bit-identical to the per-stream decoder.

    ``vref`` / ``dac_bits`` override ``config``'s values when given, and
    may be per-stream sequences (see :func:`level_zoh_batch`), so a batch
    whose rows decode at *different* DAC operating points — the
    DAC-resolution sweep — still runs through one call.
    """
    if scheme not in ("atc", "datc"):
        raise ValueError(f"scheme must be 'atc' or 'datc', got {scheme!r}")
    require_positive(silence_timeout_s=silence_timeout_s)
    if scheme == "atc":
        return event_rate_batch(streams, fs_out, window_s=window_s)
    if not 0.0 <= rate_weight <= 1.0:
        raise ValueError(f"rate_weight must be within [0, 1], got {rate_weight}")
    config = config if config is not None else DATCConfig()
    level = level_zoh_batch(
        streams,
        fs_out,
        vref=vref if vref is not None else config.vref,
        dac_bits=dac_bits if dac_bits is not None else config.dac_bits,
        silence_timeout_s=silence_timeout_s,
    )
    rate = event_rate_batch(streams, fs_out, window_s=window_s)
    window = max(1, int(round(window_s * fs_out)))
    return hybrid_combine(level, rate, rate_weight, window)


class StreamingDecoder:
    """Incremental receiver: event-stream chunks in, envelope chunks out.

    Feed it the ``EventStream`` chunks a
    :class:`~repro.core.encoders.StreamingEncoder` emits (absolute event
    times, ``duration_s`` = total time covered so far) and read envelope
    samples back.  The concatenation of all ``push()`` returns plus the
    ``finalize()`` tail is bit-identical to the one-shot decoder
    (:func:`~repro.rx.reconstruction.reconstruct_rate` for ``"atc"``,
    :func:`~repro.rx.reconstruction.reconstruct_hybrid` for ``"datc"``)
    run on the merged stream.

    Events are folded into per-bin state as they arrive — bin counts plus,
    for D-ATC, the per-bin level-ZOH sample — so the working set is the
    output grid (``fs_out`` bins/s), not the event history.  The residual
    state carried across chunks: events at/after the youngest bin edge
    (their bin assignment is settled only when the grid outgrows them),
    the newest ZOH hold value, and the smoothing-window tail.

    ``scheme="atc"`` emits eagerly: ``push`` returns the envelope bins
    whose smoothing window can no longer change, roughly half a window
    behind the newest event.  ``scheme="datc"`` returns empty arrays from
    ``push`` and everything from ``finalize()``: the hybrid decoder
    normalises its rate term by the global rate peak, which only the end
    of the stream reveals — its state is still O(n_bins), only the
    *emission* is deferred.

    Parameters mirror :func:`reconstruct_batch`; ``config`` supplies
    ``vref`` / ``dac_bits`` for D-ATC level decoding.
    """

    def __init__(
        self,
        scheme: str = "datc",
        config: "ATCConfig | DATCConfig | None" = None,
        fs_out: float = 100.0,
        window_s: float = 0.25,
        silence_timeout_s: float = 0.5,
        decay_tau_s: float = 0.5,
        rate_weight: float = 0.7,
    ) -> None:
        if scheme not in ("atc", "datc"):
            raise ValueError(f"scheme must be 'atc' or 'datc', got {scheme!r}")
        if fs_out <= 0:
            raise ValueError(f"fs_out must be positive, got {fs_out}")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if not 0.0 <= rate_weight <= 1.0:
            raise ValueError(
                f"rate_weight must be within [0, 1], got {rate_weight}"
            )
        require_positive(
            silence_timeout_s=silence_timeout_s, decay_tau_s=decay_tau_s
        )
        self.scheme = scheme
        if config is None:
            config = DATCConfig() if scheme == "datc" else ATCConfig()
        self.config = config
        self.fs_out = fs_out
        self.window_s = window_s
        self.silence_timeout_s = silence_timeout_s
        self.decay_tau_s = decay_tau_s
        self.rate_weight = rate_weight
        self._window = max(1, int(round(window_s * fs_out)))
        self._duration = 0.0
        self._t_last = -1.0  # newest event time (-1 = none yet)
        self._n_events = 0
        # Bin storage is allocated at capacity and grown by doubling so a
        # forever-running decode pays O(chunk) per push, not O(total bins);
        # the live grid is the [:_n] prefix of each array.
        self._n = 0
        self._cap = 0
        self._counts = np.zeros(0, dtype=np.intp)
        self._edges = grid_edges(0, fs_out)
        self._centers = grid_centers(0, fs_out)
        self._pending: "list[np.ndarray]" = []  # events at/after the last edge
        self._csum = [0.0]  # running cumulative count over closed bins
        self._emitted = 0
        self._parts: "list[np.ndarray]" = []
        # D-ATC level-ZOH state
        self._zoh_volt = np.zeros(0)
        self._zoh_gap = np.zeros(0)
        self._zoh_filled = 0
        self._carry_t = 0.0  # newest event at/before the settled frontier
        self._carry_v = 0.0
        self._has_carry = False
        self._recent_t = np.zeros(0)  # events newer than the settled frontier
        self._recent_v = np.zeros(0)
        self._finalized = False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        """Observation time covered by the chunks consumed so far."""
        return self._duration

    @property
    def n_events(self) -> int:
        """Events consumed so far."""
        return self._n_events

    @property
    def n_bins(self) -> int:
        """Output-grid bins the consumed duration spans."""
        return self._n

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has run (no more pushes accepted)."""
        return self._finalized

    @property
    def envelope(self) -> np.ndarray:
        """All envelope samples emitted so far (complete after finalize)."""
        if not self._parts:
            return np.zeros(0)
        return np.concatenate(self._parts)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, chunk: EventStream) -> np.ndarray:
        """Consume one incremental chunk; return newly final envelope bins.

        ``chunk`` follows the ``StreamingEncoder.push`` contract: only new
        events, absolute times (non-decreasing across pushes), and
        ``duration_s`` equal to the total time covered so far.
        """
        if self._finalized:
            raise RuntimeError("push() called after finalize()")
        if chunk.duration_s < self._duration:
            raise ValueError(
                f"chunk duration_s went backwards: {chunk.duration_s} after "
                f"{self._duration}"
            )
        times = chunk.times
        volts = None
        if times.size:
            if times[0] < self._t_last:
                raise ValueError(
                    "event times must be non-decreasing across pushes, got "
                    f"{times[0]} after {self._t_last}"
                )
            if self.scheme == "datc":
                if chunk.levels is None:
                    raise ValueError(
                        "D-ATC decoding needs level payloads (chunk.levels)"
                    )
                volts = chunk.level_voltages(
                    vref=self.config.vref, dac_bits=self.config.dac_bits
                )
            self._t_last = float(times[-1])
            self._n_events += times.size
        self._duration = chunk.duration_s
        self._extend_grid()
        self._ingest_counts(times)
        if self.scheme == "datc":
            self._ingest_zoh(times, volts)
            return np.zeros(0)
        return self._emit_rate()

    def _extend_grid(self) -> None:
        n = int(np.floor(self._duration * self.fs_out))
        if n <= self._n:
            return
        if n > self._cap:
            cap = max(n, 2 * self._cap, 64)
            counts = np.zeros(cap, dtype=np.intp)
            counts[: self._n] = self._counts[: self._n]
            self._counts = counts
            # Edge/centre values are prefix-stable (k / fs_out), so the
            # capacity arrays serve every future logical size too.
            self._edges = grid_edges(cap, self.fs_out)
            self._centers = grid_centers(cap, self.fs_out)
            if self.scheme == "datc":
                volt = np.zeros(cap)
                volt[: self._n] = self._zoh_volt[: self._n]
                self._zoh_volt = volt
                gap = np.zeros(cap)
                gap[: self._n] = self._zoh_gap[: self._n]
                self._zoh_gap = gap
            self._cap = cap
        self._n = n

    def _ingest_counts(self, times: np.ndarray) -> None:
        if times.size:
            self._pending.append(np.asarray(times, dtype=float))
        n = self._n
        if not self._pending or n == 0:
            return
        pend = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending)
        )
        idx = np.searchsorted(self._edges[: n + 1], pend, side="right") - 1
        # Events at/after the youngest edge stay pending: whether that edge
        # is the grid's (right-closed) end is known only when it stops
        # growing.
        inside = idx < n
        if np.any(inside):
            # A push's events span a narrow bin range; counting only that
            # range keeps the update O(chunk) instead of O(total bins).
            sub = idx[inside]
            lo = int(sub[0])
            hi = int(sub[-1]) + 1
            self._counts[lo:hi] += np.bincount(sub - lo, minlength=hi - lo)
        held = pend[~inside]
        self._pending = [held] if held.size else []

    def _ingest_zoh(self, times: np.ndarray, volts: "np.ndarray | None") -> None:
        if times.size:
            self._recent_t = np.concatenate([self._recent_t, times])
            self._recent_v = np.concatenate([self._recent_v, volts])
        # Bins with centre < newest event are settled: any future event is
        # at/after t_last, hence after those centres.
        settle_end = int(
            np.searchsorted(self._centers[: self._n], self._t_last, side="left")
        )
        self._settle_zoh(self._centers, settle_end)

    def _settle_zoh(self, centers: np.ndarray, settle_end: int) -> None:
        if settle_end <= self._zoh_filled:
            return
        c = centers[self._zoh_filled : settle_end]
        volt = np.zeros(c.size)
        t_ev = np.full(c.size, np.nan)
        if self._has_carry:
            volt[:] = self._carry_v
            t_ev[:] = self._carry_t
        idx = np.searchsorted(self._recent_t, c, side="right") - 1
        sel = idx >= 0
        volt[sel] = self._recent_v[idx[sel]]
        t_ev[sel] = self._recent_t[idx[sel]]
        have = ~np.isnan(t_ev)
        gap = np.zeros(c.size)
        gap[have] = c[have] - t_ev[have]
        self._zoh_volt[self._zoh_filled : settle_end] = volt
        self._zoh_gap[self._zoh_filled : settle_end] = gap
        self._zoh_filled = settle_end
        # Only the newest event at/before the settled frontier can source a
        # future bin; fold everything older into the carry.
        keep_from = int(np.searchsorted(self._recent_t, c[-1], side="right"))
        if keep_from > 0:
            self._carry_t = float(self._recent_t[keep_from - 1])
            self._carry_v = float(self._recent_v[keep_from - 1])
            self._has_carry = True
            self._recent_t = self._recent_t[keep_from:]
            self._recent_v = self._recent_v[keep_from:]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _closed_bins(self) -> int:
        """Bins whose count can no longer change (right edge <= t_last)."""
        n = self._n
        if n == 0 or self._t_last < 0:
            return 0
        closed = int(
            np.searchsorted(self._edges[1 : n + 1], self._t_last, "right")
        )
        if self._pending:
            # A pending event (at/after the youngest edge) can still fold
            # back into the last bin at finalize via the final grid's
            # right-closed rule, so that bin is not closed yet.
            closed = min(closed, n - 1)
        return closed

    def _emit_rate(self) -> np.ndarray:
        n = self._n
        # Until a full window of bins exists the final window length (and
        # with it every sample) is still unknown.
        if n < self._window:
            return np.zeros(0)
        half_lo = self._window // 2
        half_hi = self._window - half_lo
        n_closed = self._closed_bins()
        while len(self._csum) - 1 < n_closed:
            k = len(self._csum) - 1
            self._csum.append(self._csum[-1] + float(self._counts[k]))
        emit_end = n_closed - half_hi + 1
        if emit_end <= self._emitted:
            return np.zeros(0)
        i = np.arange(self._emitted, emit_end)
        lo = np.clip(i - half_lo, 0, None)
        hi = i + half_hi
        # Materialise only the cumulative-sum window this emission needs,
        # keeping a push O(chunk) even after hours of stream.
        base = int(lo[0])
        csum = np.asarray(self._csum[base : int(hi[-1]) + 1])
        vals = (csum[hi - base] - csum[lo - base]) / (hi - lo) * self.fs_out
        self._emitted = emit_end
        self._parts.append(vals)
        return vals

    def _flush_pending(self) -> None:
        n = self._n
        if not self._pending:
            return
        pend = np.concatenate(self._pending)
        self._pending = []
        fold_final_bins(self._counts[:n], pend, self._edges[: n + 1])

    def _full_rate(self) -> np.ndarray:
        counts = self._counts[: self._n].astype(float)
        return moving_average(counts, self._window) * self.fs_out

    def finalize(self) -> np.ndarray:
        """Flush residual state; return the remaining envelope samples."""
        if self._finalized:
            raise RuntimeError("finalize() called twice")
        self._finalized = True
        self._flush_pending()
        n = self._n
        if self.scheme == "atc":
            tail = self._full_rate()[self._emitted :]
            self._emitted = n
            if tail.size:
                self._parts.append(tail)
            return tail
        # D-ATC hybrid: settle the ZOH tail, then combine level and rate
        # through the same helpers as reconstruct_hybrid.
        self._settle_zoh(self._centers, n)
        if self._n_events == 0:
            level = np.zeros(n)
        else:
            level = silence_decay(
                self._zoh_volt[:n],
                self._zoh_gap[:n],
                self.silence_timeout_s,
                self.decay_tau_s,
            )
        env = hybrid_combine(
            level, self._full_rate(), self.rate_weight, self._window
        )
        self._emitted = n
        if env.size:
            self._parts.append(env)
        return env
