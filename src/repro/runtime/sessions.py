"""Vectorized multi-session streaming runtime (``SessionBatch``).

One always-on process must multiplex many concurrent encode -> decode
sessions (one per wearer).  Driving a scalar
:class:`~repro.core.encoders.StreamingEncoder` /
:class:`~repro.rx.decoders.StreamingDecoder` pair per session costs a
Python call stack per session per chunk — at hundreds of sessions the
interpreter dwarfs the numpy work.  :class:`SessionBatch` applies the
same loop -> batch transformation that made ``encode_batch`` /
``reconstruct_batch`` fast to the *streaming* runtime: every session's
encoder state (dense tail, frame buffer, predictor registers, comparator
flop) and decoder state (O(n_bins) bin-count accumulators) lives in
packed struct-of-arrays, and one :meth:`SessionBatch.push_many` call
advances all pushed sessions together through whole-batch numpy ops plus
the frame scan :func:`_session_frames`, which steps the same
:class:`~repro.core.predictor.BatchPredictor` as ``encode_batch``.

Contract
--------
Every session's event stream and decoded envelope is **bit-identical**
to a scalar ``StreamingEncoder``/``StreamingDecoder`` fed the same chunk
sequence, for *any* interleaving of pushes across sessions (asserted in
``tests/runtime/test_sessions.py`` and the hypothesis suite in
``tests/properties/test_sessions_properties.py``).  The batched paths
model ideal comparison only — non-ideal comparators/DACs and noisy RNG
draws stay on the scalar 1-D paths, exactly like ``encode_batch``.

Heterogeneity and lifecycle
---------------------------
Sessions whose :meth:`SessionSpec.key` match are packed into one
homogeneous sub-batch (shared clock/frame/predictor constants — the
paper's multi-channel D-ATC structure); a ``push_many`` spanning several
specs advances each sub-batch in one batched call.  Sessions join
(:meth:`SessionBatch.create`) and leave (:meth:`SessionBatch.leave`)
dynamically: slots are pooled, reused, and compacted when a sub-batch
empties out.

The live sequence mirrors the scalar one: ``push_many* ->
finalize(sid) -> drain(sid)`` (D-ATC's trailing partial frame fires its
events inside ``finalize``; ``drain``/``drain_many`` deliver incremental
event chunks at any point).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from ..core.atc import rising_edges
from ..core.config import ATCConfig, DATCConfig
from ..core.events import EventStream
from ..core.predictor import BatchPredictor
from ..rx.reconstruction import hybrid_combine, level_zoh
from ..rx.windowing import fold_final_bins, grid_edges, require_positive
from ..signals.envelope import moving_average

__all__ = [
    "SESSION_SPEC_VERSION",
    "SessionBatch",
    "SessionResult",
    "SessionSpec",
]

SESSION_SPEC_VERSION = 1


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """The operating point of one streaming session (TX + RX).

    Sessions with equal :meth:`key` share every batched constant (clock,
    frame size, predictor ladder, decode grid), so ``SessionBatch`` packs
    them into one homogeneous sub-batch.

    Parameters
    ----------
    scheme:
        ``"atc"`` or ``"datc"``.
    fs:
        Input sampling rate in Hz.
    config:
        Encoder/decoder operating point; defaults to the scheme's paper
        operating point.
    rectify:
        Full-wave rectify each chunk before thresholding.
    fs_out, window_s, silence_timeout_s, decay_tau_s, rate_weight:
        Receiver parameters, mirroring
        :class:`~repro.rx.decoders.StreamingDecoder`.
    """

    scheme: str = "datc"
    fs: float = 2000.0
    config: "ATCConfig | DATCConfig | None" = None
    rectify: bool = True
    fs_out: float = 100.0
    window_s: float = 0.25
    silence_timeout_s: float = 0.5
    decay_tau_s: float = 0.5
    rate_weight: float = 0.7

    def __post_init__(self) -> None:
        if self.scheme not in ("atc", "datc"):
            raise ValueError(
                f"scheme must be 'atc' or 'datc', got {self.scheme!r}"
            )
        require_positive(
            fs=self.fs,
            fs_out=self.fs_out,
            window_s=self.window_s,
            silence_timeout_s=self.silence_timeout_s,
            decay_tau_s=self.decay_tau_s,
        )
        if not 0.0 <= self.rate_weight <= 1.0:
            raise ValueError(
                f"rate_weight must be within [0, 1], got {self.rate_weight}"
            )
        if self.config is None:
            config = ATCConfig() if self.scheme == "atc" else DATCConfig()
            object.__setattr__(self, "config", config)
        expected = ATCConfig if self.scheme == "atc" else DATCConfig
        if not isinstance(self.config, expected):
            raise TypeError(
                f"scheme {self.scheme!r} needs a {expected.__name__}, got "
                f"{type(self.config).__name__}"
            )

    def to_dict(self) -> dict:
        """Canonical JSON-able form (the hashed identity of the spec)."""
        return {
            "version": SESSION_SPEC_VERSION,
            "scheme": self.scheme,
            "fs": self.fs,
            "config_type": type(self.config).__name__,
            "config": dataclasses.asdict(self.config),
            "rectify": self.rectify,
            "fs_out": self.fs_out,
            "window_s": self.window_s,
            "silence_timeout_s": self.silence_timeout_s,
            "decay_tau_s": self.decay_tau_s,
            "rate_weight": self.rate_weight,
        }

    def key(self) -> str:
        """Stable content hash; equal keys batch into one sub-batch."""
        cached = getattr(self, "_key", None)
        if cached is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()
            # Frozen dataclass: memoised through object.__setattr__ (the
            # hash sits on the hot push path of every session).
            object.__setattr__(self, "_key", cached)
        return cached

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        """Rebuild from :meth:`to_dict` output (the wire/server format).

        Round-trips exactly: ``SessionSpec.from_dict(spec.to_dict())``
        has the same :meth:`key` as ``spec``.  Validation runs as usual,
        so a malformed payload fails with the same pointed errors as a
        direct construction.
        """
        data = dict(data)
        version = data.pop("version", SESSION_SPEC_VERSION)
        if version != SESSION_SPEC_VERSION:
            raise ValueError(
                f"unsupported SessionSpec version {version!r} "
                f"(this build speaks {SESSION_SPEC_VERSION})"
            )
        config_type = data.pop("config_type", None)
        config = data.pop("config", None)
        if config is not None and not isinstance(config, (ATCConfig, DATCConfig)):
            by_name = {"ATCConfig": ATCConfig, "DATCConfig": DATCConfig}
            if config_type not in by_name:
                raise ValueError(
                    f"config_type must be one of {sorted(by_name)}, "
                    f"got {config_type!r}"
                )
            fields = dict(config)
            for name in ("frame_sizes", "weights"):
                if name in fields and fields[name] is not None:
                    fields[name] = tuple(fields[name])
            config = by_name[config_type](**fields)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SessionSpec fields: {unknown}")
        return cls(config=config, **data)


@dataclasses.dataclass(frozen=True)
class SessionResult:
    """What :meth:`SessionBatch.finalize` hands back for one session."""

    session_id: int
    stream: EventStream  # every event the session fired (one-shot form)
    envelope: np.ndarray  # decoded envelope on the fs_out grid


# ----------------------------------------------------------------------
# The multi-session D-ATC frame scan
# ----------------------------------------------------------------------
def _session_frames(
    P: np.ndarray,
    navail: np.ndarray,
    emitted: np.ndarray,
    last_bit: np.ndarray,
    n_one1: np.ndarray,
    n_one2: np.ndarray,
    level: np.ndarray,
    config: DATCConfig,
):
    """Advance every pushed D-ATC session through its completed frames.

    ``P`` is the packed frame-assembly matrix: row ``r`` holds that
    session's ``navail[r]`` buffered clocked samples starting at column
    0 (columns beyond are garbage, never read), whose global clock index
    is ``emitted[r] + column``.  Register arrays (``last_bit``,
    ``n_one1``, ``n_one2``, ``level``) are updated **in place** for rows
    with completed frames; rows still short of a frame are untouched.

    Returns ``(ev_row, ev_clk, ev_lvl)`` int64 arrays sorted by (row,
    clock): the rising-edge events fired, with the level in force when
    each fired.  Per-row arithmetic is bit-identical to the scalar
    ``DATCEncoder`` frame loop.
    """
    frame_size = config.frame_size
    predictor = BatchPredictor(config, P.shape[0], (n_one1, n_one2, level))
    n_frames = navail // frame_size
    max_f = int(n_frames.max()) if n_frames.size else 0
    rows_parts: "list[np.ndarray]" = []
    clk_parts: "list[np.ndarray]" = []
    lvl_parts: "list[np.ndarray]" = []
    for f in range(max_f):
        live = n_frames > f
        vth = predictor.vth()
        bits = P[:, f * frame_size : (f + 1) * frame_size] > vth[:, None]
        prev = np.concatenate([(last_bit == 1)[:, None], bits[:, :-1]], axis=1)
        edge = bits & ~prev & live[:, None]
        r_i, c_i = np.nonzero(edge)
        rows_parts.append(r_i)
        clk_parts.append(emitted[r_i] + f * frame_size + c_i)
        lvl_parts.append(predictor.level[r_i])
        predictor.update(bits.sum(axis=1), live)
        last_bit[...] = np.where(live, bits[:, -1].astype(np.int64), last_bit)
    n_one1[...] = predictor.n_one1
    n_one2[...] = predictor.n_one2
    level[...] = predictor.level
    if not rows_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    r = np.concatenate(rows_parts)
    c = np.concatenate(clk_parts)
    lv = np.concatenate(lvl_parts)
    # The frame loop emits frame-major; the contract is row-major with
    # ascending clocks per row (a stable sort keeps frames in order).
    order = np.argsort(r, kind="stable")
    return r[order], c[order], lv[order]


# ----------------------------------------------------------------------
# One homogeneous sub-batch (equal spec.key())
# ----------------------------------------------------------------------
class _SubBatch:
    """Packed struct-of-arrays state for sessions sharing one spec.

    Row ``slot`` of every array is one session.  Slots are pooled
    (``release`` -> free list -> ``acquire``) and the arrays are
    compacted when the batch empties out, so a long-lived server's
    memory tracks its *live* population.
    """

    _MIN_ROWS = 8

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.scheme = spec.scheme
        self.fs = float(spec.fs)
        self.config = spec.config
        self.clock_hz = float(spec.config.clock_hz)
        self.fs_out = float(spec.fs_out)
        self.window = max(1, int(round(spec.window_s * spec.fs_out)))
        self.frame_size = (
            spec.config.frame_size if self.scheme == "datc" else 0
        )
        self.has_levels = self.scheme == "datc"
        # Dense samples a future clock edge can still capture: bounded by
        # one clock period plus slack (grown defensively if ever needed).
        self.tail_cap = int(np.ceil(self.fs / self.clock_hz)) + 4
        self.cap = self._MIN_ROWS
        self._alloc(self.cap)
        self._ev_cap = 64
        self._ev_clk = np.zeros((self.cap, self._ev_cap), dtype=np.int64)
        self._ev_lvl = (
            np.zeros((self.cap, self._ev_cap), dtype=np.int64)
            if self.has_levels
            else None
        )
        self._bin_cap = 64
        self._counts = np.zeros((self.cap, self._bin_cap), dtype=np.intp)
        self._edges = grid_edges(self._bin_cap, self.fs_out)
        self._free: "list[int]" = list(range(self.cap))
        self.slot_of: "dict[int, int]" = {}  # session id -> row

    def _alloc(self, cap: int) -> None:
        self._active = np.zeros(cap, dtype=bool)
        self._finalized = np.zeros(cap, dtype=bool)
        self._sid = np.full(cap, -1, dtype=np.int64)
        self._ns = np.zeros(cap, dtype=np.int64)
        self._nclk_sampled = np.zeros(cap, dtype=np.int64)
        self._nclk_emitted = np.zeros(cap, dtype=np.int64)
        self._last_bit = np.zeros(cap, dtype=np.int64)
        self._tail_len = np.zeros(cap, dtype=np.int64)
        self._tail = np.zeros((cap, self.tail_cap), dtype=float)
        self._frame_len = np.zeros(cap, dtype=np.int64)
        self._frame_buf = np.zeros((cap, max(self.frame_size, 1)), dtype=float)
        self._n_one1 = np.zeros(cap, dtype=np.int64)
        self._n_one2 = np.zeros(cap, dtype=np.int64)
        self._level = np.zeros(cap, dtype=np.int64)
        self._ev_len = np.zeros(cap, dtype=np.int64)
        self._counted = np.zeros(cap, dtype=np.int64)
        self._drained = np.zeros(cap, dtype=np.int64)
        self._n_bins = np.zeros(cap, dtype=np.int64)

    @property
    def n_active(self) -> int:
        return len(self.slot_of)

    # -- slot lifecycle -------------------------------------------------
    def acquire(self, sid: int) -> int:
        if not self._free:
            self._grow_rows(2 * self.cap)
        slot = self._free.pop()
        self._reset_slot(slot)
        self._active[slot] = True
        self._sid[slot] = sid
        self.slot_of[sid] = slot
        return slot

    def release(self, sid: int) -> None:
        slot = self.slot_of.pop(sid)
        self._active[slot] = False
        self._sid[slot] = -1
        self._free.append(slot)
        if self.cap > 2 * self._MIN_ROWS and self.n_active <= self.cap // 4:
            self._compact()

    def _reset_slot(self, slot: int) -> None:
        self._finalized[slot] = False
        self._ns[slot] = 0
        self._nclk_sampled[slot] = 0
        self._nclk_emitted[slot] = 0
        self._last_bit[slot] = 0
        self._tail_len[slot] = 0
        self._frame_len[slot] = 0
        self._n_one1[slot] = 0
        self._n_one2[slot] = 0
        self._level[slot] = (
            self.config.initial_level if self.has_levels else 0
        )
        self._ev_len[slot] = 0
        self._counted[slot] = 0
        self._drained[slot] = 0
        self._n_bins[slot] = 0
        self._counts[slot, :] = 0

    def _grow_rows(self, new_cap: int) -> None:
        old = self.__dict__.copy()
        self._alloc(new_cap)
        for name in (
            "_active", "_finalized", "_sid", "_ns", "_nclk_sampled",
            "_nclk_emitted", "_last_bit", "_tail_len", "_tail",
            "_frame_len", "_frame_buf", "_n_one1", "_n_one2", "_level",
            "_ev_len", "_counted", "_drained", "_n_bins",
        ):
            getattr(self, name)[: self.cap] = old[name]
        for name, cols in (("_ev_clk", self._ev_cap), ("_counts", self._bin_cap)):
            grown = np.zeros((new_cap, cols), dtype=old[name].dtype)
            grown[: self.cap] = old[name]
            setattr(self, name, grown)
        if self.has_levels:
            grown = np.zeros((new_cap, self._ev_cap), dtype=np.int64)
            grown[: self.cap] = old["_ev_lvl"]
            self._ev_lvl = grown
        self._free.extend(range(self.cap, new_cap))
        self.cap = new_cap

    def _compact(self) -> None:
        """Repack live rows to the front; shrink to fit the population."""
        live = np.flatnonzero(self._active)
        new_cap = self._MIN_ROWS
        while new_cap < 2 * live.size:
            new_cap *= 2
        matrices = {
            "_tail": self._tail[live],
            "_frame_buf": self._frame_buf[live],
            "_ev_clk": self._ev_clk[live],
            "_counts": self._counts[live],
        }
        if self.has_levels:
            matrices["_ev_lvl"] = self._ev_lvl[live]
        vectors = {
            name: getattr(self, name)[live]
            for name in (
                "_active", "_finalized", "_sid", "_ns", "_nclk_sampled",
                "_nclk_emitted", "_last_bit", "_tail_len", "_frame_len",
                "_n_one1", "_n_one2", "_level", "_ev_len", "_counted",
                "_drained", "_n_bins",
            )
        }
        self.cap = new_cap
        self._alloc(new_cap)
        for name, packed in vectors.items():
            getattr(self, name)[: live.size] = packed
        self._ev_clk = np.zeros((new_cap, self._ev_cap), dtype=np.int64)
        self._ev_clk[: live.size] = matrices["_ev_clk"]
        self._counts = np.zeros((new_cap, self._bin_cap), dtype=np.intp)
        self._counts[: live.size] = matrices["_counts"]
        self._tail[: live.size] = matrices["_tail"]
        self._frame_buf[: live.size] = matrices["_frame_buf"]
        if self.has_levels:
            self._ev_lvl = np.zeros((new_cap, self._ev_cap), dtype=np.int64)
            self._ev_lvl[: live.size] = matrices["_ev_lvl"]
        self._free = list(range(live.size, new_cap))
        self.slot_of = {
            int(self._sid[i]): i for i in range(live.size)
        }

    # -- storage growth -------------------------------------------------
    def _ensure_ev_cap(self, need: int) -> None:
        if need <= self._ev_cap:
            return
        cap = self._ev_cap
        while cap < need:
            cap *= 2
        grown = np.zeros((self.cap, cap), dtype=np.int64)
        grown[:, : self._ev_cap] = self._ev_clk
        self._ev_clk = grown
        if self.has_levels:
            grown = np.zeros((self.cap, cap), dtype=np.int64)
            grown[:, : self._ev_cap] = self._ev_lvl
            self._ev_lvl = grown
        self._ev_cap = cap

    def _ensure_bin_cap(self, need: int) -> None:
        if need <= self._bin_cap:
            return
        cap = self._bin_cap
        while cap < need:
            cap *= 2
        grown = np.zeros((self.cap, cap), dtype=np.intp)
        grown[:, : self._bin_cap] = self._counts
        self._counts = grown
        # Edge values are prefix-stable (k / fs_out): the longer array
        # serves every earlier logical grid too.
        self._edges = grid_edges(cap, self.fs_out)
        self._bin_cap = cap

    def _ensure_tail_cap(self, need: int) -> None:
        if need <= self.tail_cap:
            return
        grown = np.zeros((self.cap, need), dtype=float)
        grown[:, need - self.tail_cap :] = self._tail  # stay right-aligned
        self._tail = grown
        self.tail_cap = need

    # -- the batched advance -------------------------------------------
    def push(self, slots: "list[int]", chunks: "list[np.ndarray]") -> int:
        """Advance the pushed sessions by one chunk each; count new events.

        The whole-batch mirror of ``StreamingEncoder.push`` +
        ``StreamingDecoder.push``: clock-edge resampling, frame assembly,
        predictor updates, edge detection and bin counting all run as
        whole-batch numpy calls over the pushed rows, with ragged
        chunk lengths handled by padding + per-row masks.
        """
        k = len(slots)
        rows = np.asarray(slots, dtype=np.intp)
        L = np.array([c.size for c in chunks], dtype=np.int64)
        l_max = int(L.max()) if k else 0
        X = np.zeros((k, l_max), dtype=float)
        for j, c in enumerate(chunks):
            if c.size:
                X[j, : c.size] = c
        if self.spec.rectify:
            np.abs(X, out=X)

        ratio = self.fs / self.clock_hz
        ns0 = self._ns[rows]
        ns1 = ns0 + L
        # Same IEEE op order as n_whole_clocks: floor((n / fs) * clock).
        total = np.floor((ns1 / self.fs) * self.clock_hz).astype(np.int64)
        start = self._nclk_sampled[rows]
        n_new = total - start
        k_max = int(n_new.max()) if k else 0

        # Tail bookkeeping (scalar _advance): the earliest future capture
        # point is clock total+1's sample; everything before it is dead.
        next_idx = np.ceil((total + 1) * ratio - 1e-9).astype(np.int64) - 1
        offset0 = ns0 - self._tail_len[rows]
        new_offset = np.where(
            n_new > 0,
            np.minimum(np.maximum(next_idx, offset0), ns1),
            offset0,
        )
        new_len = ns1 - new_offset
        if k:
            self._ensure_tail_cap(int(new_len.max()))

        # Combined sample matrix: [right-aligned tail | padded chunk];
        # global sample index g lives at column g - ns0 + tail_cap.
        C = np.concatenate([self._tail[rows], X], axis=1)

        new_events = 0
        if k_max > 0:
            c_nums = (
                start[:, None]
                + np.arange(1, k_max + 1, dtype=np.int64)[None, :]
            )
            # Same expression as clock_sample_indices, per row.
            idx = np.ceil(c_nums * ratio - 1e-9).astype(np.int64) - 1
            np.clip(idx, 0, np.maximum(ns1 - 1, 0)[:, None], out=idx)
            col = idx - ns0[:, None] + self.tail_cap
            x_clk = np.take_along_axis(C, col, axis=1)
            valid = np.arange(k_max)[None, :] < n_new[:, None]
            if self.scheme == "atc":
                new_events = self._emit_atc(rows, x_clk, valid, n_new)
            else:
                new_events = self._emit_datc(rows, x_clk, n_new, k_max)

        # Write back the sample/tail registers.
        p = np.arange(self.tail_cap, dtype=np.int64)[None, :]
        new_tail = np.take_along_axis(C, L[:, None] + p, axis=1)
        new_tail[p < (self.tail_cap - new_len)[:, None]] = 0.0
        self._tail[rows] = new_tail
        self._tail_len[rows] = new_len
        self._ns[rows] = ns1
        self._nclk_sampled[rows] = total

        # Decoder side: extend each session's grid and fold the newly
        # assignable events into the packed bin counts (O(chunk) work).
        n_bins_new = np.floor((ns1 / self.fs) * self.fs_out).astype(np.int64)
        if k:
            self._ensure_bin_cap(int(n_bins_new.max()))
        self._n_bins[rows] = n_bins_new
        self._count_new_bins(rows)
        return new_events

    def _emit_atc(self, rows, x_clk, valid, n_new) -> int:
        """Compare + edge-detect the new clocked samples (ATC rows)."""
        bits = (x_clk > self.config.vth) & valid
        prev = np.concatenate(
            [(self._last_bit[rows] == 1)[:, None], bits[:, :-1]], axis=1
        )
        edge = bits & ~prev & valid
        r_i, c_i = np.nonzero(edge)
        clk = self._nclk_emitted[rows][r_i] + c_i
        last_col = np.maximum(n_new - 1, 0)[:, None]
        lb_new = np.take_along_axis(bits, last_col, axis=1).ravel()
        self._last_bit[rows] = np.where(
            n_new > 0, lb_new.astype(np.int64), self._last_bit[rows]
        )
        self._nclk_emitted[rows] += n_new
        return self._append_events(rows, r_i, clk, None)

    def _emit_datc(self, rows, x_clk, n_new, k_max) -> int:
        """Assemble frames and scan them through :func:`_session_frames`."""
        k = rows.size
        frame_size = self.frame_size
        navail = self._frame_len[rows] + n_new
        width = frame_size + k_max
        P = np.zeros((k, width), dtype=float)
        P[:, :frame_size] = self._frame_buf[rows]
        cols = (
            self._frame_len[rows][:, None]
            + np.arange(k_max, dtype=np.int64)[None, :]
        )
        np.put_along_axis(P, cols, x_clk, axis=1)

        emitted = self._nclk_emitted[rows].copy()
        lb = self._last_bit[rows].copy()
        n1 = self._n_one1[rows].copy()
        n2 = self._n_one2[rows].copy()
        lv = self._level[rows].copy()
        ev_row, ev_clk, ev_lvl = _session_frames(
            P, navail, emitted, lb, n1, n2, lv, self.config
        )
        self._last_bit[rows] = lb
        self._n_one1[rows] = n1
        self._n_one2[rows] = n2
        self._level[rows] = lv

        n_frames = navail // frame_size
        self._nclk_emitted[rows] += n_frames * frame_size
        leftover = navail - n_frames * frame_size
        fcols = np.minimum(
            (n_frames * frame_size)[:, None]
            + np.arange(frame_size, dtype=np.int64)[None, :],
            width - 1,
        )
        new_fb = np.take_along_axis(P, fcols, axis=1)
        new_fb[np.arange(frame_size)[None, :] >= leftover[:, None]] = 0.0
        self._frame_buf[rows] = new_fb
        self._frame_len[rows] = leftover
        return self._append_events(rows, ev_row, ev_clk, ev_lvl)

    def _append_events(self, rows, r_i, clk, lvl) -> int:
        """Scatter row-major (row, clock[, level]) events into the history."""
        if r_i.size == 0:
            return 0
        counts = np.bincount(r_i, minlength=rows.size)
        self._ensure_ev_cap(int((self._ev_len[rows] + counts).max()))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        within = np.arange(r_i.size) - starts[r_i]
        gr = rows[r_i]
        pos = self._ev_len[rows][r_i] + within
        self._ev_clk[gr, pos] = clk
        if self.has_levels:
            self._ev_lvl[gr, pos] = lvl
        self._ev_len[rows] += counts
        return int(r_i.size)

    def _count_new_bins(self, rows) -> None:
        """Fold newly assignable events into the packed bin counts.

        An event is assignable once its bin lies strictly inside the
        current grid (events at/after the youngest edge stay pending —
        the scalar ``StreamingDecoder`` rule); assignable events form a
        prefix of each row's uncounted suffix because times and bins are
        non-decreasing.
        """
        u = self._ev_len[rows] - self._counted[rows]
        total = int(u.sum())
        if total == 0:
            return
        k = rows.size
        rr = np.repeat(np.arange(k), u)
        offs = np.concatenate([[0], np.cumsum(u)[:-1]])
        within = np.arange(total) - np.repeat(offs, u)
        gr = rows[rr]
        pos = self._counted[rows][rr] + within
        t = (self._ev_clk[gr, pos] + 1) / self.clock_hz
        n_row = self._n_bins[rows][rr]
        # O(1)-per-event bin assignment with one-step corrections (the
        # binned_counts_batch trick): exact edges[b] <= t < edges[b+1].
        e = self._edges
        b = np.clip((t * self.fs_out).astype(np.intp), 0, np.maximum(n_row - 1, 0))
        b -= t < e[b]
        b += t >= e[np.minimum(b + 1, n_row)]
        countable = b < n_row
        if np.any(countable):
            flat = gr[countable] * self._bin_cap + b[countable]
            np.add.at(self._counts.reshape(-1), flat, 1)
            self._counted[rows] += np.bincount(rr[countable], minlength=k)

    # -- per-session views ----------------------------------------------
    def duration(self, slot: int) -> float:
        return int(self._ns[slot]) / self.fs

    def _stream_from(self, slot: int, start: int, stop: int) -> EventStream:
        idx = self._ev_clk[slot, start:stop]
        levels = (
            self._ev_lvl[slot, start:stop].copy() if self.has_levels else None
        )
        return EventStream(
            times=(idx + 1) / self.clock_hz,
            duration_s=self.duration(slot),
            levels=levels,
            clock_hz=self.clock_hz,
            symbols_per_event=self.config.symbols_per_event,
        )

    def drain(self, slot: int) -> EventStream:
        out = self._stream_from(slot, int(self._drained[slot]), int(self._ev_len[slot]))
        self._drained[slot] = self._ev_len[slot]
        return out

    def full_stream(self, slot: int) -> EventStream:
        return self._stream_from(slot, 0, int(self._ev_len[slot]))

    def has_undrained(self, slot: int) -> bool:
        return int(self._ev_len[slot]) > int(self._drained[slot])

    # -- finalize --------------------------------------------------------
    def finalize(self, slot: int) -> np.ndarray:
        """Flush the trailing frame + pending bins; return the envelope."""
        if self._finalized[slot]:
            raise RuntimeError("finalize() called twice")
        if self._nclk_sampled[slot] == 0:
            raise ValueError(
                f"signal too short: {int(self._ns[slot])} samples at "
                f"{self.fs} Hz covers no {self.clock_hz} Hz clock period"
            )
        self._finalized[slot] = True
        if self.has_levels and self._frame_len[slot] > 0:
            self._flush_partial_frame(slot)
        return self._finalize_envelope(slot)

    def _flush_partial_frame(self, slot: int) -> None:
        """The scalar trailing-partial-frame rule: compare, fire, no update."""
        f_len = int(self._frame_len[slot])
        segment = self._frame_buf[slot, :f_len]
        level = int(self._level[slot])
        vth = self.config.level_to_voltage(level)
        bits = (segment > vth).astype(np.uint8)
        idx = rising_edges(bits, initial=int(self._last_bit[slot]))
        clk = idx + int(self._nclk_emitted[slot])
        self._last_bit[slot] = int(bits[-1])
        self._nclk_emitted[slot] += f_len
        self._frame_len[slot] = 0
        if clk.size:
            self._ensure_ev_cap(int(self._ev_len[slot]) + clk.size)
            pos = int(self._ev_len[slot])
            self._ev_clk[slot, pos : pos + clk.size] = clk
            self._ev_lvl[slot, pos : pos + clk.size] = level
            self._ev_len[slot] += clk.size

    def _finalize_envelope(self, slot: int) -> np.ndarray:
        n = int(self._n_bins[slot])
        counted = int(self._counted[slot])
        ev_len = int(self._ev_len[slot])
        if ev_len > counted:
            pend = (self._ev_clk[slot, counted:ev_len] + 1) / self.clock_hz
            fold_final_bins(self._counts[slot, :n], pend, self._edges[: n + 1])
            self._counted[slot] = ev_len
        counts = self._counts[slot, :n].astype(float)
        rate = moving_average(counts, self.window) * self.fs_out
        if self.scheme == "atc":
            return rate
        # D-ATC hybrid: the level ZOH and the normalised rate, combined by
        # the same hybrid_combine as every other decoder.
        spec = self.spec
        if ev_len == 0:
            level = np.zeros(n)
        else:
            level = level_zoh(
                self.full_stream(slot),
                self.fs_out,
                vref=self.config.vref,
                dac_bits=self.config.dac_bits,
                silence_timeout_s=spec.silence_timeout_s,
                decay_tau_s=spec.decay_tau_s,
            )
        return hybrid_combine(level, rate, spec.rate_weight, self.window)


# ----------------------------------------------------------------------
# The public engine
# ----------------------------------------------------------------------
class SessionBatch:
    """N concurrent streaming sessions advanced by whole-batch calls.

    Usage::

        batch = SessionBatch()
        a = batch.create(SessionSpec(scheme="datc", fs=2500.0))
        b = batch.create(SessionSpec(scheme="datc", fs=2500.0))
        while chunks:
            batch.push_many({a: chunk_a, b: chunk_b})   # one batched call
        result_a = batch.finalize(a)    # SessionResult(stream, envelope)
        batch.leave(a)                  # slot returns to the pool

    Sessions with equal ``spec.key()`` advance together in one
    homogeneous sub-batch; a heterogeneous ``push_many`` costs one
    batched call per distinct spec.  ``drain``/``drain_many`` expose the
    incremental event chunks (the scalar ``push* -> finalize -> drain``
    contract) for callers that forward events to a live receiver or
    link.
    """

    def __init__(self) -> None:
        self._groups: "dict[str, _SubBatch]" = {}
        self._by_sid: "dict[int, _SubBatch]" = {}
        self._next_sid = 0

    # -- lifecycle -------------------------------------------------------
    def create(self, spec: SessionSpec) -> int:
        """Open a streaming session; returns its session id."""
        if not isinstance(spec, SessionSpec):
            raise TypeError(
                f"spec must be a SessionSpec, got {type(spec).__name__}"
            )
        key = spec.key()
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _SubBatch(spec)
        sid = self._next_sid
        self._next_sid += 1
        group.acquire(sid)
        self._by_sid[sid] = group
        return sid

    def leave(self, sid: int) -> None:
        """Close a session and return its slot to the pool."""
        group = self._group(sid)
        group.release(sid)
        del self._by_sid[sid]

    def _group(self, sid: int) -> _SubBatch:
        group = self._by_sid.get(sid)
        if group is None:
            raise KeyError(f"unknown session id {sid}")
        return group

    @property
    def n_sessions(self) -> int:
        """Sessions currently open (finalized-but-not-left included)."""
        return len(self._by_sid)

    @property
    def n_groups(self) -> int:
        """Distinct homogeneous sub-batches currently held."""
        return len(self._groups)

    def session_ids(self) -> "list[int]":
        return sorted(self._by_sid)

    def spec(self, sid: int) -> SessionSpec:
        return self._group(sid).spec

    # -- streaming -------------------------------------------------------
    def push_many(self, chunks: "dict[int, np.ndarray]") -> int:
        """Advance every pushed session by its chunk; count new events.

        ``chunks`` maps session id -> 1-D sample chunk (ragged lengths,
        empty chunks allowed).  All sessions sharing a spec advance in
        one batched call.  Event/envelope state after any sequence of
        ``push_many`` calls is bit-identical to scalar per-session
        streaming, regardless of how pushes interleave.
        """
        grouped: "dict[int, tuple[_SubBatch, list[int], list[np.ndarray]]]" = {}
        for sid, chunk in chunks.items():
            group = self._group(sid)
            slot = group.slot_of[sid]
            if group._finalized[slot]:
                raise RuntimeError("push() called after finalize()")
            x = np.asarray(chunk, dtype=float)
            if x.ndim != 1:
                raise ValueError(f"chunk must be 1-D, got shape {x.shape}")
            entry = grouped.get(id(group))
            if entry is None:
                entry = grouped[id(group)] = (group, [], [])
            entry[1].append(slot)
            entry[2].append(x)
        new_events = 0
        for group, slots, xs in grouped.values():
            new_events += group.push(slots, xs)
        return new_events

    def drain(self, sid: int) -> EventStream:
        """Events fired since the last drain (empty stream when none)."""
        group = self._group(sid)
        return group.drain(group.slot_of[sid])

    def drain_many(self) -> "dict[int, EventStream]":
        """Drain every session holding undrained events."""
        out = {}
        for sid, group in self._by_sid.items():
            slot = group.slot_of[sid]
            if group.has_undrained(slot):
                out[sid] = group.drain(slot)
        return out

    def finalize(self, sid: int) -> SessionResult:
        """Flush a session; return its full stream and decoded envelope.

        The session stays registered (so ``drain`` can still deliver the
        finalize-flushed events) until :meth:`leave` frees its slot.
        """
        group = self._group(sid)
        slot = group.slot_of[sid]
        envelope = group.finalize(slot)
        return SessionResult(
            session_id=sid,
            stream=group.full_stream(slot),
            envelope=envelope,
        )
