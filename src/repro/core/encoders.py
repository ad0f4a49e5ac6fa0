"""Streaming & batched encoder engine for ATC and D-ATC.

The paper's transmitter is an always-on device: samples arrive forever and
events leave as they happen.  This module provides the incremental
counterpart of the one-shot :func:`repro.core.atc.atc_encode` /
:func:`repro.core.datc.datc_encode` functions (which are now thin wrappers
over it), plus a batched 2-D path for encoding many signals at once.

Streaming
---------
A :class:`StreamingEncoder` consumes a signal in arbitrary chunks::

    enc = DATCEncoder(fs=2500.0)
    for chunk in chunks:              # any sizes, including empty
        events = enc.push(chunk)      # EventStream of newly fired events
    trace = enc.finalize()            # full diagnostic trace
    stream = enc.stream               # all events, same as one-shot

Chunked output is **bit-identical** to the one-shot path for any chunking:
the encoder carries the comparator state (hysteresis flop), the partial
frame's clock-sampled values, the DTC ones counts and the predictor history
across chunk boundaries, and resumes the clock-edge resampling sequence
(:func:`repro.digital.synchronizer.clock_sample_indices`) mid-signal.
Noisy comparisons also match because ``numpy.random.Generator`` draws are
sequential: the per-chunk (ATC) / per-frame (D-ATC) draw layout consumes
the generator exactly as the one-shot call does.

The *working set* is O(chunk + frame): only the dense samples a future
clock edge can still capture are retained.  The accumulated outputs — the
diagnostic trace (one entry per clock) and the event history — grow with
runtime like any recording does; a truly open-ended deployment should
drain events from ``push()`` and periodically rotate encoders at a frame
boundary rather than keep one trace forever.

Batching
--------
:func:`encode_batch` encodes an ``(n_signals, n_samples)`` array in one
call: ATC is fully vectorised (one comparison over the whole matrix);
D-ATC is frame-vectorised **across the signal axis** — one
:class:`~repro.core.predictor.BatchPredictor` carries every row's
history (the same step :class:`~repro.runtime.sessions.SessionBatch`
uses), with each frame's comparison and ones count computed for all rows
in single numpy ops.  Per-row results are bit-identical to the
per-signal loop and to the per-sample reference scan the test suite
keeps as an oracle.  The batched paths model ideal comparison only
(non-ideal comparators and DACs stay on the 1-D paths).
"""

from __future__ import annotations

import numpy as np

from ..analog.comparator import Comparator
from ..analog.dac import DAC
from ..digital.synchronizer import clock_sample_indices, n_whole_clocks
from .atc import ATCTrace, rising_edges, rising_edges_2d
from .config import ATCConfig, DATCConfig
from .datc import DATCTrace
from .events import EventStream
from .predictor import BatchPredictor, ThresholdPredictor

__all__ = [
    "StreamingEncoder",
    "ATCEncoder",
    "DATCEncoder",
    "encode_batch",
    "atc_encode_batch",
    "datc_encode_batch",
]


class _GrowBuffer:
    """Append-only 1-D array with doubling capacity (amortised-O(1) append).

    ``StreamingEncoder`` accumulates per-clock and per-event history for
    the lifetime of a session.  A list-of-chunks representation would make
    every ``drain()``/``stream`` call re-concatenate the whole history —
    O(n²) over a long-lived session.  The grow buffer keeps the history
    flat: appends are amortised O(1) and reads are O(1) slice views (the
    prefix is written once and never mutated, so views stay valid across
    later appends).
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, dtype) -> None:
        self._buf = np.zeros(16, dtype=dtype)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, values: np.ndarray) -> None:
        n = len(values)
        if n == 0:
            return
        need = self._len + n
        if need > self._buf.size:
            cap = self._buf.size
            while cap < need:
                cap *= 2
            grown = np.zeros(cap, dtype=self._buf.dtype)
            grown[: self._len] = self._buf[: self._len]
            self._buf = grown
        self._buf[self._len : need] = values
        self._len = need

    def view(self) -> np.ndarray:
        """The accumulated values so far (O(1), no copy)."""
        return self._buf[: self._len]


class StreamingEncoder:
    """Base class for incremental threshold-crossing encoders.

    Subclasses implement :meth:`push` (consume a chunk, return the newly
    fired events) and :meth:`finalize` (flush pending state, return the
    diagnostic trace).  The base class owns the sample/clock bookkeeping:
    a rolling tail of dense samples, the resumable clock-edge resampler,
    and the accumulated event indices.

    Parameters
    ----------
    fs:
        Input sampling rate in Hz (dataset rate, e.g. 2500 Hz).
    config:
        The encoder operating point (``ATCConfig`` or ``DATCConfig``).
    rectify:
        Full-wave rectify each chunk before thresholding.
    tail_dtype:
        Element type of the retained dense tail (bits for ATC, raw sample
        values for D-ATC).
    """

    def __init__(self, fs: float, config, rectify: bool, tail_dtype) -> None:
        if fs <= 0:
            raise ValueError(f"fs must be positive, got {fs}")
        self.fs = fs
        self.config = config
        self.rectify = rectify
        self._n_samples = 0
        self._n_clocks_sampled = 0
        self._tail = np.zeros(0, dtype=tail_dtype)
        self._tail_offset = 0
        self._n_clocks_emitted = 0
        self._last_bit = 0
        self._event_idx_buf = _GrowBuffer(np.int64)
        self._d_in_buf = _GrowBuffer(np.uint8)
        self._n_drained = 0  # events already handed out by push()/drain()
        self._finalized = False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        """The event-generator clock."""
        return self.config.clock_hz

    @property
    def n_samples(self) -> int:
        """Total input samples consumed so far."""
        return self._n_samples

    @property
    def n_clocks(self) -> int:
        """Clock cycles emitted into the output trace so far."""
        return self._n_clocks_emitted

    @property
    def duration_s(self) -> float:
        """Signal time covered by the samples consumed so far."""
        return self._n_samples / self.fs

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has run (no more pushes accepted)."""
        return self._finalized

    def _check_chunk(self, chunk: np.ndarray) -> np.ndarray:
        if self._finalized:
            raise RuntimeError("push() called after finalize()")
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"chunk must be 1-D, got shape {x.shape}")
        return np.abs(x) if self.rectify else x

    def _advance(self, dense: np.ndarray) -> np.ndarray:
        """Append dense samples, return the newly capturable clock values.

        Keeps only the tail a future clock edge can still reach, so a
        forever-running encoder uses bounded memory.
        """
        if dense.size:
            self._tail = (
                np.concatenate([self._tail, dense]) if self._tail.size else dense
            )
            self._n_samples += dense.size
        total = n_whole_clocks(self._n_samples, self.fs, self.clock_hz)
        n_new = total - self._n_clocks_sampled
        if n_new <= 0:
            return self._tail[:0]
        idx = clock_sample_indices(
            self._n_samples,
            self.fs,
            self.clock_hz,
            n_clocks=n_new,
            start_clock=self._n_clocks_sampled,
        )
        sampled = self._tail[idx - self._tail_offset]
        self._n_clocks_sampled = total
        # Edge total+1 is the earliest future capture point; nothing before
        # it can be read again.
        next_idx = int(np.ceil((total + 1) * (self.fs / self.clock_hz) - 1e-9)) - 1
        drop = min(max(next_idx - self._tail_offset, 0), self._tail.size)
        if drop > 0:
            self._tail = self._tail[drop:]
            self._tail_offset += drop
        return sampled

    def _emit_bits(self, bits: np.ndarray) -> np.ndarray:
        """Append clocked bits to the trace; return global event indices."""
        if not bits.size:
            return np.zeros(0, dtype=np.int64)
        global_idx = rising_edges(bits, initial=self._last_bit) + self._n_clocks_emitted
        self._d_in_buf.append(bits)
        self._event_idx_buf.append(global_idx)
        self._last_bit = int(bits[-1])
        self._n_clocks_emitted += bits.size
        return global_idx

    def _event_indices(self) -> np.ndarray:
        return self._event_idx_buf.view()

    def _d_in(self) -> np.ndarray:
        return self._d_in_buf.view()

    def _require_clocks(self) -> None:
        if self._n_clocks_sampled == 0:
            raise ValueError(
                f"signal too short: {self._n_samples} samples at {self.fs} Hz "
                f"covers no {self.clock_hz} Hz clock period"
            )

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> EventStream:
        """Consume a chunk; return the events it caused (absolute times)."""
        raise NotImplementedError

    def finalize(self):
        """Flush pending state; return the diagnostic trace."""
        raise NotImplementedError

    def drain(self) -> EventStream:
        """Events fired since the last ``push``/``drain``, incrementally.

        ``finalize`` can fire events that no ``push`` returned — D-ATC's
        trailing partial frame is compared (events fire) without updating
        the DTC.  A live receiver must see them too, so the full chunked
        sequence is ``push* -> finalize -> drain``; see
        :class:`repro.rx.decoders.StreamingDecoder`.  Draining with
        nothing outstanding returns an empty stream.
        """
        idx = self._event_indices()[self._n_drained :]
        levels = self._event_levels()
        if levels is not None:
            levels = levels[self._n_drained :]
        return self._incremental_stream(idx, levels)

    @property
    def stream(self) -> EventStream:
        """All events fired so far, as a single one-shot-equivalent stream."""
        idx = self._event_indices()
        return EventStream(
            times=(idx + 1) / self.clock_hz,
            duration_s=self.duration_s,
            levels=self._event_levels(),
            clock_hz=self.clock_hz,
            symbols_per_event=self.config.symbols_per_event,
        )

    def _event_levels(self) -> "np.ndarray | None":
        return None

    def _incremental_stream(
        self, idx: np.ndarray, levels: "np.ndarray | None"
    ) -> EventStream:
        self._n_drained += idx.size
        return EventStream(
            times=(idx + 1) / self.clock_hz,
            duration_s=self.duration_s,
            levels=levels,
            clock_hz=self.clock_hz,
            symbols_per_event=self.config.symbols_per_event,
        )


class ATCEncoder(StreamingEncoder):
    """Incremental fixed-threshold ATC (streaming form of ``atc_encode``).

    The comparator runs on the dense input chunk as it arrives (carrying
    the hysteresis flop state across chunks), and the resulting dense bit
    stream is resampled at the 2 kHz clock as whole clock periods become
    available.

    Parameters match :func:`repro.core.atc.atc_encode`.
    """

    def __init__(
        self,
        fs: float,
        config: "ATCConfig | None" = None,
        comparator: "Comparator | None" = None,
        rectify: bool = True,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        super().__init__(
            fs,
            config if config is not None else ATCConfig(),
            rectify,
            tail_dtype=np.uint8,
        )
        self.comparator = comparator
        self.rng = rng
        self._comp_state = 0

    def push(self, chunk: np.ndarray) -> EventStream:
        """Consume a chunk of the dense signal; return new events."""
        x = self._check_chunk(chunk)
        if x.size == 0:
            bits = np.zeros(0, dtype=np.uint8)
        elif self.comparator is None:
            bits = (x > self.config.vth).astype(np.uint8)
        else:
            bits = self.comparator.compare(
                x, self.config.vth, rng=self.rng, initial_state=self._comp_state
            )
            self._comp_state = int(bits[-1])
        d_new = self._advance(bits)
        idx = self._emit_bits(d_new)
        return self._incremental_stream(idx, None)

    def finalize(self) -> ATCTrace:
        """Close the stream; return the trace (raises on a clockless run)."""
        if self._finalized:
            raise RuntimeError("finalize() called twice")
        self._finalized = True
        self._require_clocks()
        return ATCTrace(
            d_in=self._d_in(), vth=self.config.vth, clock_hz=self.clock_hz
        )


class DATCEncoder(StreamingEncoder):
    """Incremental D-ATC (streaming form of ``datc_encode``).

    Chunks are rectified and clock-resampled on arrival; the clocked
    values accumulate into the current frame, and every *completed* frame
    is compared against the predictor's threshold, counted by the DTC and
    fed back through the predictor — exactly the Fig. 1 loop, one frame at
    a time.  A trailing partial frame is compared (events still fire) but
    never updates the DTC, matching the one-shot semantics; it is flushed
    by :meth:`finalize`.

    Parameters match :func:`repro.core.datc.datc_encode`.
    """

    def __init__(
        self,
        fs: float,
        config: "DATCConfig | None" = None,
        comparator: "Comparator | None" = None,
        dac: "DAC | None" = None,
        rectify: bool = True,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        config = config if config is not None else DATCConfig()
        super().__init__(fs, config, rectify, tail_dtype=float)
        if dac is not None and dac.n_bits != config.dac_bits:
            raise ValueError(
                f"dac.n_bits ({dac.n_bits}) must match config.dac_bits "
                f"({config.dac_bits})"
            )
        self.comparator = comparator
        self.dac = dac
        self.rng = rng
        self._predictor = ThresholdPredictor(config)
        self._comp_state = 0
        self._frame_buf = np.zeros(0, dtype=float)
        self._level_buf = _GrowBuffer(np.int64)
        self._vth_buf = _GrowBuffer(float)
        self._event_level_buf = _GrowBuffer(np.int64)
        self._frame_levels: "list[int]" = []
        self._frame_ones: "list[int]" = []
        self._frame_avr: "list[float]" = []

    @property
    def predictor(self) -> ThresholdPredictor:
        """The live threshold predictor (its level applies to the next frame)."""
        return self._predictor

    def _process_frame(
        self, segment: np.ndarray, complete: bool
    ) -> "tuple[np.ndarray, np.ndarray]":
        level = self._predictor.level
        vth = (
            self.dac.to_voltage(level)
            if self.dac is not None
            else self.config.level_to_voltage(level)
        )
        if self.comparator is None:
            bits = (segment > vth).astype(np.uint8)
        else:
            bits = self.comparator.compare(
                segment, vth, rng=self.rng, initial_state=self._comp_state
            )
            self._comp_state = int(bits[-1]) if bits.size else self._comp_state
        idx = self._emit_bits(bits)
        event_levels = np.full(idx.size, level, dtype=np.int64)
        self._level_buf.append(np.full(bits.size, level, dtype=np.int64))
        self._vth_buf.append(np.full(bits.size, vth, dtype=float))
        self._event_level_buf.append(event_levels)
        if complete:  # only completed frames update the DTC
            n_one = int(bits.sum())
            self._frame_avr.append(self._predictor.average(n_one))
            self._predictor.update(n_one)
            self._frame_ones.append(n_one)
            self._frame_levels.append(self._predictor.level)
        return idx, event_levels

    def push(self, chunk: np.ndarray) -> EventStream:
        """Consume a chunk of the dense signal; return new events."""
        x = self._check_chunk(chunk)
        x_clk = self._advance(x)
        if x_clk.size:
            self._frame_buf = (
                np.concatenate([self._frame_buf, x_clk])
                if self._frame_buf.size
                else x_clk
            )
        frame_size = self.config.frame_size
        idx_parts = []
        level_parts = []
        while self._frame_buf.size >= frame_size:
            segment = self._frame_buf[:frame_size]
            self._frame_buf = self._frame_buf[frame_size:]
            idx, event_levels = self._process_frame(segment, complete=True)
            idx_parts.append(idx)
            level_parts.append(event_levels)
        if idx_parts:
            idx = np.concatenate(idx_parts)
            levels = np.concatenate(level_parts)
        else:
            idx = np.zeros(0, dtype=np.int64)
            levels = np.zeros(0, dtype=np.int64)
        return self._incremental_stream(idx, levels)

    def finalize(self) -> DATCTrace:
        """Flush the trailing partial frame; return the full trace."""
        if self._finalized:
            raise RuntimeError("finalize() called twice")
        self._finalized = True
        self._require_clocks()
        if self._frame_buf.size:
            self._process_frame(self._frame_buf, complete=False)
            self._frame_buf = self._frame_buf[:0]
        return DATCTrace(
            d_in=self._d_in(),
            levels=self._levels_per_clock(),
            vth=self._vth_per_clock(),
            frame_levels=np.asarray(self._frame_levels, dtype=np.int64),
            frame_ones=np.asarray(self._frame_ones, dtype=np.int64),
            frame_avr=np.asarray(self._frame_avr, dtype=float),
            clock_hz=self.clock_hz,
            frame_size=self.config.frame_size,
        )

    def _levels_per_clock(self) -> np.ndarray:
        return self._level_buf.view()

    def _vth_per_clock(self) -> np.ndarray:
        return self._vth_buf.view()

    def _event_levels(self) -> "np.ndarray | None":
        return self._event_level_buf.view()


# ----------------------------------------------------------------------
# Batched 2-D paths
# ----------------------------------------------------------------------
def _as_batch(signals) -> np.ndarray:
    """Coerce a 2-D array or a list of equal-length 1-D arrays to (n, m)."""
    if isinstance(signals, np.ndarray):
        x = np.asarray(signals, dtype=float)
        if x.ndim != 2:
            raise ValueError(
                f"signals array must be 2-D (n_signals, n_samples), got shape {x.shape}"
            )
        return x
    rows = [np.asarray(s, dtype=float) for s in signals]
    if not rows:
        raise ValueError("need at least one signal")
    for i, r in enumerate(rows):
        if r.ndim != 1:
            raise ValueError(f"signal {i} must be 1-D, got shape {r.shape}")
    lengths = {r.size for r in rows}
    if len(lengths) > 1:
        raise ValueError(
            "all signals must share the same length, got lengths "
            f"{sorted(r.size for r in rows)}"
        )
    return np.stack(rows)


def _check_batch_fs(n_samples: int, fs: float, clock_hz: float) -> int:
    if fs <= 0:
        raise ValueError(f"fs must be positive, got {fs}")
    n_clocks = n_whole_clocks(n_samples, fs, clock_hz)
    if n_clocks == 0:
        raise ValueError(
            f"signal too short: {n_samples} samples at {fs} Hz covers no "
            f"{clock_hz} Hz clock period"
        )
    return n_clocks


def atc_encode_batch(
    signals,
    fs: float,
    config: "ATCConfig | None" = None,
    rectify: bool = True,
) -> "list[tuple[EventStream, ATCTrace]]":
    """Fixed-threshold ATC over an ``(n_signals, n_samples)`` batch.

    Fully vectorised: one comparison over the whole matrix, one shared
    clock-edge gather, one batched edge detection.  Each row's
    ``(EventStream, ATCTrace)`` is bit-identical to ``atc_encode`` on that
    row.
    """
    config = config if config is not None else ATCConfig()
    x = _as_batch(signals)
    if rectify:
        x = np.abs(x)
    n_signals, n_samples = x.shape
    n_clocks = _check_batch_fs(n_samples, fs, config.clock_hz)
    duration = n_samples / fs

    dense_bits = (x > config.vth).astype(np.uint8)
    edge_idx = clock_sample_indices(n_samples, fs, config.clock_hz, n_clocks=n_clocks)
    d_in = dense_bits[:, edge_idx]
    edge_mask = rising_edges_2d(d_in)

    out = []
    for r in range(n_signals):
        idx = np.flatnonzero(edge_mask[r])
        stream = EventStream(
            times=(idx + 1) / config.clock_hz,
            duration_s=duration,
            levels=None,
            clock_hz=config.clock_hz,
            symbols_per_event=config.symbols_per_event,
        )
        trace = ATCTrace(d_in=d_in[r], vth=config.vth, clock_hz=config.clock_hz)
        out.append((stream, trace))
    return out


def _datc_frames(x_clk: np.ndarray, config: DATCConfig):
    """The frame-vectorised D-ATC scan: the ``datc_encode_batch`` hot loop.

    One Python iteration per frame, each a handful of whole-batch numpy
    ops driving a :class:`~repro.core.predictor.BatchPredictor`.
    Returns ``(d_in, levels, vth, frame_levels, frame_ones, frame_avr)``.
    """
    n_signals, n_clocks = x_clk.shape
    predictor = BatchPredictor(config, n_signals)
    frame_size = config.frame_size
    d_in = np.empty((n_signals, n_clocks), dtype=np.uint8)
    levels = np.empty((n_signals, n_clocks), dtype=np.int64)
    vth_per_clock = np.empty((n_signals, n_clocks), dtype=float)
    frame_levels: "list[np.ndarray]" = []
    frame_ones: "list[np.ndarray]" = []
    frame_avr: "list[np.ndarray]" = []

    n_frames_total = -(-n_clocks // frame_size)  # ceil division
    for f in range(n_frames_total):
        k0 = f * frame_size
        k1 = min(k0 + frame_size, n_clocks)
        vth = predictor.vth()
        bits = x_clk[:, k0:k1] > vth[:, None]
        d_in[:, k0:k1] = bits
        levels[:, k0:k1] = predictor.level[:, None]
        vth_per_clock[:, k0:k1] = vth[:, None]

        if k1 - k0 == frame_size:  # only completed frames update the DTCs
            ones = bits.sum(axis=1)
            frame_avr.append(predictor.update(ones))
            frame_ones.append(ones)
            frame_levels.append(predictor.level)

    n_frames = len(frame_ones)
    frame_avr_m = (
        np.stack(frame_avr, axis=1) if n_frames else np.zeros((n_signals, 0))
    )
    frame_ones_m = (
        np.stack(frame_ones, axis=1)
        if n_frames
        else np.zeros((n_signals, 0), dtype=np.int64)
    )
    frame_levels_m = (
        np.stack(frame_levels, axis=1)
        if n_frames
        else np.zeros((n_signals, 0), dtype=np.int64)
    )
    return d_in, levels, vth_per_clock, frame_levels_m, frame_ones_m, frame_avr_m


def datc_encode_batch(
    signals,
    fs: float,
    config: "DATCConfig | None" = None,
    rectify: bool = True,
) -> "list[tuple[EventStream, DATCTrace]]":
    """D-ATC over an ``(n_signals, n_samples)`` batch.

    Frame-vectorised across the signal axis: each frame's comparison and
    DTC ones count run as single numpy ops over all rows, with one
    independent :class:`ThresholdPredictor` per row (the per-channel DTC
    instances of the multi-channel systems).  The Python-level loop runs
    ``n_frames`` times instead of ``n_signals * n_frames`` — the hot path
    of dataset sweeps and multi-channel encoding.  Per-row results are
    bit-identical to ``datc_encode``.
    """
    config = config if config is not None else DATCConfig()
    x = _as_batch(signals)
    if rectify:
        x = np.abs(x)
    n_signals, n_samples = x.shape
    n_clocks = _check_batch_fs(n_samples, fs, config.clock_hz)
    duration = n_samples / fs

    edge_idx = clock_sample_indices(n_samples, fs, config.clock_hz, n_clocks=n_clocks)
    x_clk = x[:, edge_idx]

    frame_size = config.frame_size
    (
        d_in,
        levels,
        vth_per_clock,
        frame_levels_m,
        frame_ones_m,
        frame_avr_m,
    ) = _datc_frames(x_clk, config)
    edge_mask = rising_edges_2d(d_in)

    out = []
    for r in range(n_signals):
        idx = np.flatnonzero(edge_mask[r])
        stream = EventStream(
            times=(idx + 1) / config.clock_hz,
            duration_s=duration,
            levels=levels[r, idx],
            clock_hz=config.clock_hz,
            symbols_per_event=config.symbols_per_event,
        )
        trace = DATCTrace(
            d_in=d_in[r],
            levels=levels[r],
            vth=vth_per_clock[r],
            frame_levels=frame_levels_m[r],
            frame_ones=frame_ones_m[r],
            frame_avr=frame_avr_m[r],
            clock_hz=config.clock_hz,
            frame_size=frame_size,
        )
        out.append((stream, trace))
    return out


def encode_batch(
    signals,
    fs: float,
    config: "ATCConfig | DATCConfig | None" = None,
    rectify: bool = True,
) -> "list[tuple[EventStream, ATCTrace | DATCTrace]]":
    """Encode a batch of signals, dispatching on the config type.

    ``config=None`` defaults to the paper's D-ATC operating point.  Returns
    one ``(EventStream, trace)`` pair per row, in row order.
    """
    if config is None or isinstance(config, DATCConfig):
        return datc_encode_batch(signals, fs, config, rectify=rectify)
    if isinstance(config, ATCConfig):
        return atc_encode_batch(signals, fs, config, rectify=rectify)
    raise TypeError(
        f"config must be ATCConfig, DATCConfig or None, got {type(config).__name__}"
    )
