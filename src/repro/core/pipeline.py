"""End-to-end TX -> RX pipeline helpers.

These wrap encoder + reconstructor + correlation into one call so that the
experiment drivers, examples and benchmarks all evaluate a pattern the same
way: encode the sEMG into events, reconstruct the envelope at the receiver,
and score the reconstruction against the pattern's ground-truth ARV
envelope (the paper's "% correlation w.r.t. raw muscle force").

The canonical way to describe and run an evaluation is :mod:`repro.api`
(:class:`~repro.api.ExperimentSpec` + :class:`~repro.api.Experiment`):
:func:`run_atc` / :func:`run_datc` are the single-pattern conveniences
over it, and many patterns run through ``Experiment(spec).run``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rx.correlation import aligned_correlation_percent
from ..rx.reconstruction import reconstruct_hybrid, reconstruct_rate
from ..signals.dataset import Pattern
from .atc import ATCTrace
from .config import ATCConfig, DATCConfig
from .datc import DATCTrace
from .events import EventStream

__all__ = [
    "PipelineResult",
    "run_atc",
    "run_datc",
    "DEFAULT_FS_OUT",
    "DEFAULT_WINDOW_S",
]

DEFAULT_FS_OUT = 100.0  # reconstruction grid (Hz); force bandwidth is a few Hz
DEFAULT_WINDOW_S = 0.25  # the receiver's smoothing window


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of encoding + reconstructing one pattern.

    Attributes
    ----------
    scheme:
        "atc" or "datc".
    stream:
        The transmitted event stream.
    reconstruction:
        Receiver-side envelope estimate on the ``fs_out`` grid.
    fs_out:
        Grid rate of the reconstruction (Hz).
    correlation_pct:
        Paper metric: 100 x Pearson r against the ground-truth envelope.
    trace:
        The encoder's diagnostic trace (ATCTrace or DATCTrace).
    """

    scheme: str
    stream: EventStream
    reconstruction: np.ndarray
    fs_out: float
    correlation_pct: float
    trace: "ATCTrace | DATCTrace"

    @property
    def n_events(self) -> int:
        """Number of transmitted events."""
        return self.stream.n_events

    @property
    def n_symbols(self) -> int:
        """Total IR-UWB symbols transmitted (paper Sec. III-B accounting)."""
        return self.stream.n_symbols


def _receive_and_score(
    scheme: str,
    stream: EventStream,
    trace: "ATCTrace | DATCTrace",
    pattern: Pattern,
    config: "ATCConfig | DATCConfig",
    fs_out: float,
    window_s: float,
    dac_bits: "int | None" = None,
) -> PipelineResult:
    """Receiver side shared by the one-shot and batched paths.

    ``dac_bits`` overrides the encoder config's DAC resolution on the
    receiver (the :class:`repro.api.DecoderSpec` mismatched-receiver
    study); ``None`` decodes at the encoder's resolution.
    """
    if scheme == "atc":
        recon = reconstruct_rate(stream, fs_out=fs_out, window_s=window_s)
    else:
        recon = reconstruct_hybrid(
            stream,
            fs_out=fs_out,
            vref=config.vref,
            dac_bits=dac_bits if dac_bits is not None else config.dac_bits,
            smooth_window_s=window_s,
        )
    reference = pattern.ground_truth_envelope(window_s=window_s)
    corr = aligned_correlation_percent(recon, reference)
    return PipelineResult(
        scheme=scheme,
        stream=stream,
        reconstruction=recon,
        fs_out=fs_out,
        correlation_pct=corr,
        trace=trace,
    )


def run_atc(
    pattern: Pattern,
    config: "ATCConfig | None" = None,
    fs_out: float = DEFAULT_FS_OUT,
    window_s: float = DEFAULT_WINDOW_S,
) -> PipelineResult:
    """Fixed-threshold ATC end to end on one pattern (spec-path view)."""
    from ..api import Experiment, ExperimentSpec

    spec = ExperimentSpec.for_scheme(
        "atc", config, fs_out=fs_out, window_s=window_s
    )
    return Experiment(spec).run_one(pattern)


def run_datc(
    pattern: Pattern,
    config: "DATCConfig | None" = None,
    fs_out: float = DEFAULT_FS_OUT,
    window_s: float = DEFAULT_WINDOW_S,
) -> PipelineResult:
    """D-ATC end to end on one pattern (spec-path view)."""
    from ..api import Experiment, ExperimentSpec

    spec = ExperimentSpec.for_scheme(
        "datc", config, fs_out=fs_out, window_s=window_s
    )
    return Experiment(spec).run_one(pattern)


def _pattern_envelope(pattern: Pattern, window_s: float) -> np.ndarray:
    """Picklable ground-truth-envelope worker for the batch fan-out."""
    return pattern.ground_truth_envelope(window_s=window_s)
