"""Declarative experiment API: one canonical, hashable description per run.

Everything the library evaluates — a figure, a sweep point, a dataset
shard, a streamed session — is some composition of the same four stages:
encode (ATC/D-ATC), optionally transport (IR-UWB link), decode
(rate / hybrid reconstruction), and score (correlation against ground
truth).  This module describes every such run with one frozen,
composable **spec tree**:

``ExperimentSpec``
    ``EncoderSpec`` (scheme + ``ATCConfig``/``DATCConfig``) +
    optional ``LinkSpec`` (a ``LinkConfig``) +
    ``DecoderSpec`` (``fs_out``, ``window_s``, optional ``dac_bits``
    override) + ``ScoreSpec`` (metric).

A spec is

* **serialisable** — ``to_dict()`` / ``from_dict()`` round-trip through
  plain JSON types, so a spec can live in a file, a CLI flag, or an IPC
  message;
* **content-addressed** — ``spec.key()`` is a SHA-256 over the canonical
  JSON form, identical across processes, platforms and Python versions
  (no dependence on ``PYTHONHASHSEED`` or dict order), which is what the
  persistent :class:`~repro.runtime.store.ResultStore` and the future
  multi-node dispatcher key on;
* **composable** — ``spec.replace(...)`` / ``spec.replace_at(path, v)``
  derive new operating points, which is how one generic
  :meth:`Experiment.sweep` covers every per-parameter study (threshold,
  frame size, DAC resolution, predictor weights, noise, pulse loss).

The :class:`Experiment` facade executes a spec: ``run(patterns)`` rides
the fully batched ``encode_batch -> reconstruct_batch -> stacked
correlation`` pipeline, ``sweep(pattern, axis, values)`` substitutes
values into the spec tree (or applies one of the *data axes*,
``"input.snr_db"`` / ``"stream.drop_prob"``) and decodes the whole grid
in one batched call, ``dataset_sweep`` shards a pattern grid over the
execution runtime, and ``pipeline(fs)`` / ``stream(source, fs)`` drive
the live :class:`~repro.runtime.ingest.AsyncStreamingPipeline`.  These
are the library's only sweep entry points.

Attach a :class:`~repro.runtime.store.ResultStore` and every sweep /
dataset evaluation is memoised on ``(spec.key(), data fingerprint)``:
a warm re-run performs zero re-evaluations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core.config import ATCConfig, DATCConfig
from .core.events import EventStream
from .core.pipeline import (
    DEFAULT_FS_OUT,
    DEFAULT_WINDOW_S,
    PipelineResult,
    _pattern_envelope,
    _receive_and_score,
)
from .core.atc import atc_encode
from .core.datc import datc_encode
from .core.encoders import encode_batch
from .runtime.executors import default_jobs, map_jobs, plan_shards, resolve_backend
from .runtime.ingest import AsyncStreamingPipeline
from .runtime.store import ResultStore, fingerprint_value
from .rx.correlation import aligned_correlation_percent_batch
from .rx.decoders import reconstruct_batch
from .signals.dataset import DatasetSpec, Pattern
from .uwb.channel import UWBChannel
from .uwb.link import LinkConfig, simulate_link, simulate_link_batch

__all__ = [
    "EncoderSpec",
    "LinkSpec",
    "DecoderSpec",
    "ScoreSpec",
    "ExperimentSpec",
    "Experiment",
    "SweepPoint",
    "LinkSweepPoint",
    "DatasetSweepResult",
    "DATA_AXES",
    "pattern_fingerprint",
    "dataset_fingerprint",
    "dataset_point_fingerprint",
]

SPEC_FORMAT_VERSION = 1

# Sweep axes that vary the *input data* rather than the spec tree; the
# value is the axis's default RNG seed (fixed, so recorded results and
# stored points stay reproducible).
DATA_AXES = {"input.snr_db": 11, "stream.drop_prob": 7}

_CONFIG_TYPES = {
    "ATCConfig": ATCConfig,
    "DATCConfig": DATCConfig,
    "LinkConfig": LinkConfig,
}


# ----------------------------------------------------------------------
# Canonical (de)serialisation helpers
# ----------------------------------------------------------------------
def _typed_to_dict(obj) -> dict:
    """A flat dataclass (config) as a typed dict of JSON-able values."""
    out = {"type": type(obj).__name__}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, (np.integer, np.floating, np.bool_)):
            value = value.item()
        out[f.name] = value
    return out


def _typed_from_dict(data: dict):
    """Inverse of :func:`_typed_to_dict` (lists back to tuples)."""
    data = dict(data)
    type_name = data.pop("type", None)
    if type_name not in _CONFIG_TYPES:
        raise ValueError(
            f"unknown config type {type_name!r}; expected one of "
            f"{sorted(_CONFIG_TYPES)}"
        )
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
    }
    return _CONFIG_TYPES[type_name](**kwargs)


def _normalise_numbers(data):
    """Numerics coerced to float so ``100`` and ``100.0`` hash identically.

    Python compares ``DecoderSpec(fs_out=100) == DecoderSpec(fs_out=100.0)``
    equal, so their keys must match too (the CLI feeds ``json.loads`` ints
    where library callers pass floats).  Bools stay bools; ints are exact
    as floats well past any field's realistic range.
    """
    if isinstance(data, bool):
        return data
    if isinstance(data, (int, float)):
        return float(data)
    if isinstance(data, dict):
        return {k: _normalise_numbers(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_normalise_numbers(v) for v in data]
    return data


def _canonical_json(data) -> str:
    """The canonical serialised form ``key()`` hashes.

    ``sort_keys`` removes dict-order dependence, numerics are normalised
    (see :func:`_normalise_numbers`) and JSON floats use ``repr``
    (shortest round-trip, stable on every CPython/NumPy since 3.1), so
    the digest is identical across processes, spawn-mode workers,
    platforms and Python versions.
    """
    return json.dumps(
        _normalise_numbers(data), sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# The spec tree
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EncoderSpec:
    """Transmitter stage: encoding scheme + its configuration.

    ``config=None`` selects the scheme's paper operating point
    (``ATCConfig()`` / ``DATCConfig()``).
    """

    scheme: str = "datc"
    config: "ATCConfig | DATCConfig | None" = None

    def __post_init__(self) -> None:
        if self.scheme not in ("atc", "datc"):
            raise ValueError(
                f"scheme must be 'atc' or 'datc', got {self.scheme!r}"
            )
        expected = ATCConfig if self.scheme == "atc" else DATCConfig
        if self.config is None:
            object.__setattr__(self, "config", expected())
        if not isinstance(self.config, expected):
            raise TypeError(
                f"scheme {self.scheme!r} needs a {expected.__name__}, "
                f"got {type(self.config).__name__}"
            )

    def to_dict(self) -> dict:
        """Canonical JSON-able form."""
        return {"scheme": self.scheme, "config": _typed_to_dict(self.config)}

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            scheme=data["scheme"], config=_typed_from_dict(data["config"])
        )


@dataclass(frozen=True)
class LinkSpec:
    """Optional transport stage: the behavioural IR-UWB link."""

    config: LinkConfig = LinkConfig()

    def to_dict(self) -> dict:
        """Canonical JSON-able form."""
        return {"config": _typed_to_dict(self.config)}

    @classmethod
    def from_dict(cls, data: dict) -> "LinkSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(config=_typed_from_dict(data["config"]))


@dataclass(frozen=True)
class DecoderSpec:
    """Receiver stage: reconstruction grid and smoothing window.

    ``dac_bits=None`` decodes D-ATC levels at the *encoder's* DAC
    resolution (the usual matched-transceiver case); an explicit value
    overrides it, e.g. to study a mismatched receiver.
    """

    fs_out: float = DEFAULT_FS_OUT
    window_s: float = DEFAULT_WINDOW_S
    dac_bits: "int | None" = None

    def __post_init__(self) -> None:
        if self.fs_out <= 0:
            raise ValueError(f"fs_out must be positive, got {self.fs_out}")
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}"
            )
        if self.dac_bits is not None and self.dac_bits < 1:
            raise ValueError(
                f"dac_bits must be >= 1 or None, got {self.dac_bits}"
            )

    def to_dict(self) -> dict:
        """Canonical JSON-able form."""
        return {
            "fs_out": self.fs_out,
            "window_s": self.window_s,
            "dac_bits": self.dac_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecoderSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ScoreSpec:
    """Scoring stage: the figure-of-merit computed against ground truth."""

    metric: str = "correlation_pct"

    def __post_init__(self) -> None:
        if self.metric != "correlation_pct":
            raise ValueError(
                "the only supported metric is 'correlation_pct', got "
                f"{self.metric!r}"
            )

    def to_dict(self) -> dict:
        """Canonical JSON-able form."""
        return {"metric": self.metric}

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ExperimentSpec:
    """The complete, hashable description of one experiment.

    Compose the four stage specs; derive variants with :meth:`replace` /
    :meth:`replace_at`; serialise with :meth:`to_dict`; address results
    with :meth:`key`.
    """

    encoder: EncoderSpec = EncoderSpec()
    link: "LinkSpec | None" = None
    decoder: DecoderSpec = DecoderSpec()
    score: ScoreSpec = ScoreSpec()

    # -- convenience -----------------------------------------------------
    @classmethod
    def for_scheme(
        cls,
        scheme: str,
        config: "ATCConfig | DATCConfig | None" = None,
        fs_out: float = DEFAULT_FS_OUT,
        window_s: float = DEFAULT_WINDOW_S,
        link: "LinkConfig | None" = None,
    ) -> "ExperimentSpec":
        """The spec matching ``run_atc``/``run_datc(pattern, config, ...)``."""
        return cls(
            encoder=EncoderSpec(scheme=scheme, config=config),
            link=LinkSpec(config=link) if link is not None else None,
            decoder=DecoderSpec(fs_out=fs_out, window_s=window_s),
        )

    @property
    def scheme(self) -> str:
        """Shorthand for ``encoder.scheme``."""
        return self.encoder.scheme

    @property
    def decode_dac_bits(self) -> int:
        """Effective receiver DAC resolution (decoder override or encoder's)."""
        if self.decoder.dac_bits is not None:
            return self.decoder.dac_bits
        if isinstance(self.encoder.config, DATCConfig):
            return self.encoder.config.dac_bits
        return 4

    @property
    def decode_vref(self) -> float:
        """Receiver DAC reference (from the encoder config; 1 V for ATC)."""
        if isinstance(self.encoder.config, DATCConfig):
            return self.encoder.config.vref
        return 1.0

    # -- derivation ------------------------------------------------------
    def replace(self, **changes) -> "ExperimentSpec":
        """A new spec with top-level stages replaced (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def replace_at(self, path: str, value) -> "ExperimentSpec":
        """A new spec with the field at dotted ``path`` replaced.

        ``path`` addresses the spec tree, e.g. ``"encoder.config.vth"``,
        ``"encoder.config"`` (a whole config object),
        ``"decoder.fs_out"`` or ``"link"``.
        """

        def substitute(obj, parts):
            name = parts[0]
            names = {f.name for f in dataclasses.fields(obj)}
            if name not in names:
                raise ValueError(
                    f"{type(obj).__name__} has no field {name!r}; "
                    f"choose from {sorted(names)}"
                )
            if len(parts) == 1:
                return dataclasses.replace(obj, **{name: value})
            return dataclasses.replace(
                obj, **{name: substitute(getattr(obj, name), parts[1:])}
            )

        parts = path.split(".")
        if not all(parts):
            raise ValueError(f"invalid spec path {path!r}")
        return substitute(self, parts)

    # -- serialisation / addressing --------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-able form (round-trips via :meth:`from_dict`)."""
        return {
            "version": SPEC_FORMAT_VERSION,
            "encoder": self.encoder.to_dict(),
            "link": self.link.to_dict() if self.link is not None else None,
            "decoder": self.decoder.to_dict(),
            "score": self.score.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        version = data.get("version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise ValueError(
                f"unsupported spec format version {version!r} "
                f"(this library writes version {SPEC_FORMAT_VERSION})"
            )
        return cls(
            encoder=EncoderSpec.from_dict(data["encoder"]),
            link=(
                LinkSpec.from_dict(data["link"])
                if data.get("link") is not None
                else None
            ),
            decoder=DecoderSpec.from_dict(data["decoder"]),
            score=ScoreSpec.from_dict(data["score"]),
        )

    def to_json(self, indent: "int | None" = 2) -> str:
        """Human-editable JSON (the ``--spec spec.json`` file format)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def key(self) -> str:
        """Stable content hash of this spec (SHA-256 hex digest).

        Identical for equal specs in any process, on any platform, under
        any Python version — the address the result store and the
        multi-node dispatcher use.
        """
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode()
        ).hexdigest()


# ----------------------------------------------------------------------
# Result containers (the sweeps' public currency)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a sweep: parameter, correlation, events."""

    parameter: float
    correlation_pct: float
    n_events: int
    n_symbols: int


@dataclass(frozen=True)
class LinkSweepPoint:
    """One operating point of a physical-link sweep."""

    erasure_prob: float
    event_delivery_ratio: float
    level_error_ratio: float
    n_pulses: int
    tx_energy_j: float


@dataclass(frozen=True)
class DatasetSweepResult:
    """Per-pattern metrics of one scheme across the dataset (Fig. 5)."""

    scheme: str
    pattern_ids: np.ndarray
    correlations_pct: np.ndarray
    n_events: np.ndarray

    @property
    def correlation_range(self) -> "tuple[float, float]":
        """(min, max) correlation across patterns."""
        return float(self.correlations_pct.min()), float(self.correlations_pct.max())

    @property
    def correlation_mean(self) -> float:
        """Mean correlation across patterns."""
        return float(self.correlations_pct.mean())

    @property
    def event_spread(self) -> float:
        """Coefficient of variation of the event counts (stability metric).

        The paper: "the dynamic thresholding technique is even stable as a
        function of the number of transmitted events for different
        patterns while in the constant thresholding it is not".
        """
        mean = self.n_events.mean()
        return float(self.n_events.std() / mean) if mean > 0 else float("inf")


# ----------------------------------------------------------------------
# Data fingerprints (the store's second key half)
# ----------------------------------------------------------------------
def pattern_fingerprint(pattern: Pattern) -> str:
    """Content hash of the evaluation-relevant part of a pattern."""
    return fingerprint_value({"fs": pattern.fs, "emg": pattern.emg})


def dataset_fingerprint(dataset: DatasetSpec) -> str:
    """Content hash of a dataset's generating spec (subjects included)."""
    return fingerprint_value(dataset)


def dataset_point_fingerprint(
    dataset: "DatasetSpec | str", pattern_id: int
) -> str:
    """Content hash of one *lazily generated* dataset pattern.

    Hashes the dataset's generating spec plus the id instead of the
    synthesised samples, so a warm sweep skips pattern synthesis too.
    ``dataset`` may be a pre-computed :func:`dataset_fingerprint` digest,
    letting a sweep hash the (large) spec once instead of per pattern.
    """
    base = dataset if isinstance(dataset, str) else dataset_fingerprint(dataset)
    return fingerprint_value({"dataset": base, "pattern_id": int(pattern_id)})


def _data_point_fingerprint(
    base: str, axis: str, value: float, seed: int, index: int
) -> str:
    """Fingerprint of a data-axis sweep point (pattern + transform).

    The grid ``index`` is part of the identity: the per-point RNG seeds
    with ``(seed, index)``, so the same value at a different grid
    position is a *different* noise realisation and must not share a
    cache entry.
    """
    return fingerprint_value(
        {
            "base": base,
            "axis": axis,
            "value": float(value),
            "seed": int(seed),
            "index": int(index),
        }
    )


# ----------------------------------------------------------------------
# Grid workers.  Module-level (bound with functools.partial) so every
# fan-out pickles under the process backend's spawn start method.
# ----------------------------------------------------------------------
def _encode_for_spec(
    spec: ExperimentSpec, emg: np.ndarray, fs: float
) -> EventStream:
    """One spec-axis sweep point: encode ``emg`` under the point's spec."""
    encode = atc_encode if spec.encoder.scheme == "atc" else datc_encode
    return encode(emg, fs, spec.encoder.config)[0]


def _transport_streams(
    streams: "list[EventStream]", specs: "list[ExperimentSpec]"
) -> "list[EventStream]":
    """Carry each TX stream over its spec's link (``link=None`` = direct).

    A uniform link rides one :func:`simulate_link_batch` call; mixed
    grids (a sweep over link parameters) fall back to per-stream
    :func:`simulate_link`.  The spec tree has no noisy-channel field, so
    transport is the *ideal* channel — deterministic, hence cacheable —
    and the received events equal the transmitted ones; the stage still
    runs so link-bearing specs exercise the real modulate/demodulate
    path (and future channel-bearing specs slot in here).
    """
    links = [s.link.config if s.link is not None else None for s in specs]
    if all(link is None for link in links):
        return streams
    if None not in links and all(link == links[0] for link in links):
        results = simulate_link_batch(streams, links[0])
        return [r.rx_stream for r in results]
    return [
        stream if link is None else simulate_link(stream, link).rx_stream
        for stream, link in zip(streams, links)
    ]


def _evaluate_spec_pattern(
    pattern: Pattern, spec: ExperimentSpec
) -> PipelineResult:
    """One pattern end to end under ``spec`` (module-level: pickles for
    process workers).  Encode one-shot, transport over the spec's link if
    any, decode + score with the spec's decoder."""
    scheme = spec.encoder.scheme
    config = spec.encoder.config
    encode = atc_encode if scheme == "atc" else datc_encode
    stream, trace = encode(pattern.emg, pattern.fs, config)
    if spec.link is not None:
        stream = simulate_link(stream, spec.link.config).rx_stream
    return _receive_and_score(
        scheme,
        stream,
        trace,
        pattern,
        config,
        spec.decoder.fs_out,
        spec.decoder.window_s,
        spec.decoder.dac_bits,
    )


def _drop_events_point(
    item: "tuple[int, float]", stream: EventStream, seed: int
) -> EventStream:
    """One ``stream.drop_prob`` point: erase events with probability ``item[1]``."""
    i, p = item
    rng = np.random.default_rng((seed, i))
    keep = rng.random(stream.n_events) >= p
    return stream.drop_events(keep)


def _noisy_encode_point(
    item: "tuple[int, float]",
    spec: ExperimentSpec,
    emg: np.ndarray,
    fs: float,
    signal_power: float,
    seed: int,
) -> EventStream:
    """One ``input.snr_db`` point: add white noise at ``item[1]`` dB, then encode."""
    i, snr_db = item
    rng = np.random.default_rng((seed, i))
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    noisy = emg + np.sqrt(noise_power) * rng.standard_normal(emg.size)
    encode = atc_encode if spec.encoder.scheme == "atc" else datc_encode
    return encode(noisy, fs, spec.encoder.config)[0]


def _dataset_shard(
    shard: "tuple[np.ndarray, np.ndarray]",
    dataset: DatasetSpec,
    specs: "tuple[ExperimentSpec, ...]",
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Evaluate one contiguous shard of dataset patterns under several specs.

    ``shard`` is ``(ids, need)``: the pattern ids and a boolean
    ``(len(specs), len(ids))`` mask of which spec still needs which
    pattern.  Each pattern is synthesised once, then every spec runs the
    batched pipeline over the patterns it needs.  Returns, per spec, only
    the summary arrays (correlation %, event counts) of those patterns —
    the IPC payload of a multi-process dataset sweep stays a few hundred
    bytes per shard instead of full traces/reconstructions.  Per-row
    results are bit-identical whatever the shard boundaries or the mix
    of patterns, because every batched stage is bit-identical per row.
    """
    ids, need = shard
    patterns = [dataset.pattern(int(i)) for i in ids]
    parts = []
    for spec, wanted in zip(specs, need):
        results = _run_patterns(
            spec, [p for p, w in zip(patterns, wanted) if w]
        )
        parts.append(
            (
                np.array([r.correlation_pct for r in results]),
                np.array([r.n_events for r in results], dtype=np.int64),
            )
        )
    return parts


def _spec_key_worker(data: dict) -> str:
    """Rebuild a spec from its dict form and return its content hash.

    Exists so tests can assert ``spec.key()`` stability inside
    spawn-started worker processes.
    """
    return ExperimentSpec.from_dict(data).key()


# ----------------------------------------------------------------------
# The batched evaluation engine
# ----------------------------------------------------------------------
def _run_patterns(
    spec: ExperimentSpec,
    patterns: "list[Pattern]",
    jobs: "int | None" = None,
    backend: "str | None" = None,
) -> "list[PipelineResult]":
    """Evaluate many patterns end to end under ``spec``, in pattern order.

    Both sides run through the batched 2-D engines when every pattern
    shares the same sampling rate and length (a dataset's always do): one
    ``encode_batch`` call, one batched link transport when the spec
    carries a :class:`LinkSpec`, one
    :func:`repro.rx.decoders.reconstruct_batch` decode of all streams,
    and one stacked-correlation call for the whole batch.  Ragged inputs
    fall back to the per-pattern path via
    :func:`repro.runtime.executors.map_jobs`.  Results are bit-identical
    on every path and backend.
    """
    if not patterns:
        return []
    scheme = spec.encoder.scheme
    config = spec.encoder.config
    fs_out = spec.decoder.fs_out
    window_s = spec.decoder.window_s

    fs = patterns[0].fs
    homogeneous = all(
        p.fs == fs and p.n_samples == patterns[0].n_samples for p in patterns
    )
    if not homogeneous:
        evaluate = partial(_evaluate_spec_pattern, spec=spec)
        return map_jobs(evaluate, patterns, jobs, backend=backend)

    emg = np.stack([p.emg for p in patterns])
    encoded = encode_batch(emg, fs, config)
    streams = _transport_streams(
        [stream for stream, _ in encoded], [spec] * len(encoded)
    )
    recons = reconstruct_batch(
        streams,
        scheme,
        config,
        fs_out=fs_out,
        window_s=window_s,
        dac_bits=spec.decoder.dac_bits,
    )
    references = np.stack(
        map_jobs(
            partial(_pattern_envelope, window_s=window_s),
            patterns,
            jobs,
            backend=backend,
        )
    )
    corrs = aligned_correlation_percent_batch(recons, references)
    return [
        PipelineResult(
            scheme=scheme,
            stream=streams[i],  # the received stream when a link is specced
            reconstruction=recons[i],
            fs_out=fs_out,
            correlation_pct=float(corrs[i]),
            trace=trace,
        )
        for i, (_, trace) in enumerate(encoded)
    ]


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class Experiment:
    """Executable view of an :class:`ExperimentSpec`.

    One object, every execution mode: batched evaluation (:meth:`run`),
    single-pattern evaluation (:meth:`run_one`, :meth:`evaluate`), the
    generic grid sweep (:meth:`sweep`), the sharded dataset sweep
    (:meth:`dataset_sweep`), the physical-link sweep (:meth:`link_sweep`)
    and live streaming (:meth:`pipeline` / :meth:`stream`).

    Attach a :class:`~repro.runtime.store.ResultStore` and the sweep
    paths are memoised on ``(spec.key(), data fingerprint)``: cached
    points are returned without re-encoding or re-decoding, bit-identical
    to a cold evaluation.
    """

    def __init__(
        self, spec: ExperimentSpec, store: "ResultStore | None" = None
    ) -> None:
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"spec must be an ExperimentSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.store = store

    def __repr__(self) -> str:
        return (
            f"Experiment({self.spec.scheme!r}, key={self.spec.key()[:12]}, "
            f"store={'yes' if self.store is not None else 'no'})"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        patterns: "list[Pattern]",
        jobs: "int | None" = None,
        backend: "str | None" = None,
    ) -> "list[PipelineResult]":
        """Evaluate many patterns through the fully batched pipeline."""
        return _run_patterns(self.spec, patterns, jobs=jobs, backend=backend)

    def run_one(self, pattern: Pattern) -> PipelineResult:
        """Evaluate one pattern end to end (what ``run_atc``/``run_datc``
        call), through the spec's link when it carries one."""
        return _evaluate_spec_pattern(pattern, self.spec)

    def evaluate(self, pattern: Pattern, parameter: float = 0.0) -> SweepPoint:
        """One pattern's cached scalar summary (store-aware).

        With a store attached the summary is fetched from / persisted to
        ``(spec.key(), pattern fingerprint)``; without one this is just
        :meth:`run_one` reduced to a :class:`SweepPoint`.
        """
        fp = None
        if self.store is not None:
            fp = pattern_fingerprint(pattern)
            cached = self.store.get(self.spec.key(), fp)
            if cached is not None:
                return self._point_from_arrays(float(parameter), cached)
        result = self.run_one(pattern)
        point = SweepPoint(
            parameter=float(parameter),
            correlation_pct=result.correlation_pct,
            n_events=result.n_events,
            n_symbols=result.n_symbols,
        )
        if self.store is not None:
            self.store.put(self.spec.key(), fp, self._point_arrays(point))
        return point

    # ------------------------------------------------------------------
    # The generic sweep
    # ------------------------------------------------------------------
    def sweep(
        self,
        pattern: Pattern,
        axis: str,
        values,
        jobs: "int | None" = None,
        backend: "str | None" = None,
        seed: "int | None" = None,
        parameter=None,
    ) -> "list[SweepPoint]":
        """Sweep one axis of the experiment over ``values`` on ``pattern``.

        ``axis`` is either a dotted spec path (``"encoder.config.vth"``,
        ``"encoder.config"`` with whole config objects as values,
        ``"decoder.dac_bits"``, ...) — each value is substituted via
        :meth:`ExperimentSpec.replace_at` — or one of the *data axes*:

        ``"input.snr_db"``
            White noise is added to the raw signal at the given SNR
            (relative to its mean square) before encoding.
        ``"stream.drop_prob"``
            Whole events of the encoded stream are erased with the given
            probability (the dominant OOK failure mode).

        Encoding fans out over ``jobs`` workers on the selected runtime
        ``backend``; the receiver side (reconstruction + correlation)
        runs once, batched across all points — heterogeneous decode
        configs included (per-row ``vref`` / ``dac_bits``).  ``seed``
        feeds the data axes' RNG (default: the axis's entry in
        :data:`DATA_AXES`).
        ``parameter`` maps a value to the number its point reports
        (default: ``float(value)``).

        With a store attached, each point is memoised under its own
        derived spec key (spec axes) or transform fingerprint (data
        axes); only missing points are evaluated.
        """
        values = list(values)
        if axis == "stream.drop_prob":
            for p in values:
                if not 0.0 <= float(p) < 1.0:
                    raise ValueError(
                        f"loss probability must be in [0, 1), got {p}"
                    )
        if not values:
            return []
        data_axis = axis in DATA_AXES
        if seed is None:
            seed = DATA_AXES.get(axis, 0)
        if data_axis:
            specs = [self.spec] * len(values)
            params = [float(v) for v in values]
        else:
            specs = [self.spec.replace_at(axis, v) for v in values]
            if parameter is None and not all(
                isinstance(v, (int, float, np.integer, np.floating))
                for v in values
            ):
                raise TypeError(
                    f"values on axis {axis!r} are not numeric; pass "
                    "parameter= to map each value to the number its "
                    "sweep point reports"
                )
            params = [float(v) for v in values] if parameter is None else []
        if parameter is not None:
            params = [float(parameter(v)) for v in values]

        points: "list[SweepPoint | None]" = [None] * len(values)
        fingerprints: "list[str | None]" = [None] * len(values)
        if self.store is not None:
            base_fp = pattern_fingerprint(pattern)
            for i, spec in enumerate(specs):
                fingerprints[i] = (
                    _data_point_fingerprint(
                        base_fp, axis, float(values[i]), seed, i
                    )
                    if data_axis
                    else base_fp
                )
                cached = self.store.get(spec.key(), fingerprints[i])
                if cached is not None:
                    points[i] = self._point_from_arrays(params[i], cached)

        todo = [i for i in range(len(values)) if points[i] is None]
        if todo:
            todo_specs = [specs[i] for i in todo]
            streams = _transport_streams(
                self._encode_points(
                    pattern, axis, values, specs, todo, seed, jobs, backend
                ),
                todo_specs,
            )
            corrs = self._decode_and_score(streams, todo_specs, pattern)
            for j, i in enumerate(todo):
                points[i] = SweepPoint(
                    parameter=params[i],
                    correlation_pct=float(corrs[j]),
                    n_events=streams[j].n_events,
                    n_symbols=streams[j].n_symbols,
                )
                if self.store is not None:
                    self.store.put(
                        specs[i].key(),
                        fingerprints[i],
                        self._point_arrays(points[i]),
                    )
        return points

    def _encode_points(
        self, pattern, axis, values, specs, todo, seed, jobs, backend
    ) -> "list[EventStream]":
        """Produce the event stream of every still-missing sweep point."""
        if axis == "stream.drop_prob":
            base = self.run_one(pattern)
            return map_jobs(
                partial(_drop_events_point, stream=base.stream, seed=seed),
                [(i, float(values[i])) for i in todo],
                jobs,
                backend=backend,
            )
        if axis == "input.snr_db":
            signal_power = float(np.mean(pattern.emg ** 2))
            return map_jobs(
                partial(
                    _noisy_encode_point,
                    spec=self.spec,
                    emg=pattern.emg,
                    fs=pattern.fs,
                    signal_power=signal_power,
                    seed=seed,
                ),
                [(i, float(values[i])) for i in todo],
                jobs,
                backend=backend,
            )
        return map_jobs(
            partial(_encode_for_spec, emg=pattern.emg, fs=pattern.fs),
            [specs[i] for i in todo],
            jobs,
            backend=backend,
        )

    def _decode_and_score(
        self,
        streams: "list[EventStream]",
        specs: "list[ExperimentSpec]",
        pattern: Pattern,
    ) -> np.ndarray:
        """Batched receiver side: one decode + one stacked correlation
        per distinct (scheme, fs_out, window_s) operating point.

        All of a sweep's streams share the pattern's observation window,
        so each group decodes in one :func:`reconstruct_batch` call —
        per-row ``vref`` / ``dac_bits`` cover heterogeneous-DAC grids
        within a group — and scores against one broadcast reference.  A
        sweep over ``"decoder.fs_out"`` / ``"decoder.window_s"`` (or over
        whole ``"encoder"`` specs with differing schemes) simply produces
        one group per distinct operating point.
        """
        corrs = np.empty(len(streams))
        groups: "dict[tuple[str, float, float], list[int]]" = {}
        for i, spec in enumerate(specs):
            key = (spec.scheme, spec.decoder.fs_out, spec.decoder.window_s)
            groups.setdefault(key, []).append(i)
        for (scheme, fs_out, window_s), rows in groups.items():
            recons = reconstruct_batch(
                [streams[i] for i in rows],
                scheme,
                None,
                fs_out=fs_out,
                window_s=window_s,
                vref=np.array([specs[i].decode_vref for i in rows]),
                dac_bits=np.array([specs[i].decode_dac_bits for i in rows]),
            )
            reference = pattern.ground_truth_envelope(window_s=window_s)
            references = np.broadcast_to(
                reference, (len(rows), reference.size)
            )
            corrs[rows] = aligned_correlation_percent_batch(recons, references)
        return corrs

    @staticmethod
    def _point_arrays(point: SweepPoint) -> "dict[str, np.ndarray]":
        """A sweep point as the arrays the result store persists."""
        return {
            "parameter": np.float64(point.parameter),
            "correlation_pct": np.float64(point.correlation_pct),
            "n_events": np.int64(point.n_events),
            "n_symbols": np.int64(point.n_symbols),
        }

    @staticmethod
    def _point_from_arrays(parameter: float, arrays) -> SweepPoint:
        """Rebuild a sweep point from stored arrays (bit-identical)."""
        return SweepPoint(
            parameter=parameter,
            correlation_pct=float(arrays["correlation_pct"]),
            n_events=int(arrays["n_events"]),
            n_symbols=int(arrays["n_symbols"]),
        )

    # ------------------------------------------------------------------
    # Dataset sweep
    # ------------------------------------------------------------------
    def dataset_sweep(
        self,
        dataset: DatasetSpec,
        limit: "int | None" = None,
        jobs: "int | None" = None,
        backend: "str | None" = None,
        shard_size: "int | None" = None,
        *,
        alongside: "Sequence[Experiment]" = (),
    ) -> "DatasetSweepResult | tuple[DatasetSweepResult, ...]":
        """Run the spec over (a prefix of) a dataset, sharded and cached.

        The pattern grid is split into contiguous shards
        (:func:`repro.runtime.executors.plan_shards`); each shard
        generates its patterns and runs the fully batched pipeline in one
        worker task, returning only the per-pattern summary arrays.
        ``backend="process"`` is the many-core path; ``serial`` /
        ``jobs=None`` is one shard — the whole grid in a single batched
        call.  Results are element-wise bit-identical across backends,
        shard sizes and cache states.

        With a store attached, each pattern's summary is memoised under
        ``(spec.key(), dataset-point fingerprint)`` — the fingerprint
        hashes the dataset's generating spec, not the samples, so a warm
        re-run performs **zero** re-evaluations (no synthesis, no encode,
        no decode).  Each store is read with one ``get_many``: a single
        round trip on a :class:`~repro.runtime.transport.RemoteStore`.

        ``alongside`` sweeps further experiments over the same patterns
        in the same pass and returns ``(own result, *their results)``.
        Each experiment keeps its own store, key, gets and puts; a
        pattern is synthesised once if any experiment misses it, and each
        experiment evaluates only its own misses.  The results equal
        separate sweeps bit for bit.
        """
        experiments = (self, *alongside)
        for experiment in experiments[1:]:
            if not isinstance(experiment, Experiment):
                raise TypeError(
                    "alongside must hold Experiment objects, got "
                    f"{type(experiment).__name__}"
                )
        n = dataset.n_patterns if limit is None else min(limit, dataset.n_patterns)
        corrs = [np.zeros(n) for _ in experiments]
        events = [np.zeros(n, dtype=np.int64) for _ in experiments]
        need = np.ones((len(experiments), n), dtype=bool)
        fingerprints: "list[str]" = []
        if any(e.store is not None for e in experiments):
            base = dataset_fingerprint(dataset)  # hash the spec once, not n times
            fingerprints = [
                dataset_point_fingerprint(base, i) for i in range(n)
            ]
        for k, experiment in enumerate(experiments):
            if experiment.store is None:
                continue
            entries = experiment.store.get_many(
                experiment.spec.key(), fingerprints
            )
            for i, cached in enumerate(entries):
                if cached is not None:
                    need[k, i] = False
                    corrs[k][i] = float(cached["correlation_pct"])
                    events[k][i] = int(cached["n_events"])
        todo = np.flatnonzero(need.any(axis=0))
        if todo.size:
            if resolve_backend(backend, jobs) == "serial":
                shards = [slice(0, todo.size)]
            else:
                shards = plan_shards(
                    todo.size,
                    jobs if jobs is not None else default_jobs(),
                    shard_size,
                )
            parts = map_jobs(
                partial(
                    _dataset_shard,
                    dataset=dataset,
                    specs=tuple(e.spec for e in experiments),
                ),
                [(todo[s], need[:, todo[s]]) for s in shards],
                jobs,
                backend=backend,
                shard_size=1,  # the pattern grid is already sharded
            )
            for k, experiment in enumerate(experiments):
                missed = np.flatnonzero(need[k])
                corrs[k][missed] = np.concatenate([p[k][0] for p in parts])
                events[k][missed] = np.concatenate([p[k][1] for p in parts])
                if experiment.store is not None:
                    key = experiment.spec.key()
                    for i in missed:
                        experiment.store.put(
                            key,
                            fingerprints[i],
                            {
                                "correlation_pct": np.float64(corrs[k][i]),
                                "n_events": np.int64(events[k][i]),
                            },
                        )
        results = tuple(
            DatasetSweepResult(
                scheme=experiment.spec.scheme,
                pattern_ids=np.arange(n),
                correlations_pct=corrs[k],
                n_events=events[k],
            )
            for k, experiment in enumerate(experiments)
        )
        return results if len(results) > 1 else results[0]

    # ------------------------------------------------------------------
    # Link sweep
    # ------------------------------------------------------------------
    def link_sweep(
        self,
        stream: EventStream,
        erasure_probs,
        seed: int = 13,
    ) -> "list[LinkSweepPoint]":
        """Event delivery and level integrity vs pulse-erasure probability.

        Transports ``stream`` through the spec's link (``spec.link``, or
        the default :class:`LinkConfig` when the spec carries none) once
        per erasure probability — all operating points share one batched
        link call with a per-point channel and a single RNG.
        """
        config = self.spec.link.config if self.spec.link is not None else LinkConfig()
        erasure_probs = [float(p) for p in erasure_probs]
        for p in erasure_probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"erasure probability must be in [0, 1], got {p}"
                )
        if not erasure_probs:
            return []
        channels = [UWBChannel(erasure_prob=p) for p in erasure_probs]
        rng = np.random.default_rng(seed)
        results = simulate_link_batch(
            [stream] * len(channels), config, channel=channels, rng=rng
        )
        return [
            LinkSweepPoint(
                erasure_prob=p,
                event_delivery_ratio=r.event_delivery_ratio,
                level_error_ratio=r.level_error_ratio,
                n_pulses=r.n_pulses,
                tx_energy_j=r.tx_energy_j,
            )
            for p, r in zip(erasure_probs, results)
        ]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def pipeline(
        self,
        fs: float,
        channel=None,
        rng: "np.random.Generator | None" = None,
        rectify: bool = True,
    ) -> AsyncStreamingPipeline:
        """A live streaming pipeline configured from this spec.

        The returned :class:`~repro.runtime.ingest.AsyncStreamingPipeline`
        carries the spec's encoder, link (if any) and decoder operating
        points; drive it with ``push``/``finish`` or ``stream``/``run``.
        """
        return AsyncStreamingPipeline(
            fs=fs,
            scheme=self.spec.scheme,
            config=self.spec.encoder.config,
            link=self.spec.link.config if self.spec.link is not None else None,
            channel=channel,
            rng=rng,
            fs_out=self.spec.decoder.fs_out,
            window_s=self.spec.decoder.window_s,
            rectify=rectify,
        )

    def stream(self, source, fs: float, **pipeline_kwargs):
        """Async-iterate envelope chunks for a live chunk ``source``.

        Sugar for ``self.pipeline(fs).stream(source)`` — see
        :class:`~repro.runtime.ingest.AsyncStreamingPipeline.stream`.
        """
        return self.pipeline(fs, **pipeline_kwargs).stream(source)
