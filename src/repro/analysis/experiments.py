"""Experiment drivers — one per table/figure of the paper's evaluation.

Each ``run_*`` function regenerates the data behind a figure or table and
returns a structured result with a ``format_table()`` method printing the
same rows/series the paper reports, alongside the paper's published
numbers.  Absolute values come from our synthetic dataset (see DESIGN.md);
the *shape* — who wins, by roughly what factor, where crossovers fall — is
the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import (
    DatasetSweepResult,
    Experiment,
    ExperimentSpec,
    SweepPoint,
)
from ..core.config import ATCConfig, DATCConfig
from ..core.datc import datc_encode
from ..core.pipeline import PipelineResult, run_atc, run_datc
from ..hardware.report import TableOne, generate_table1
from ..runtime.store import ResultStore
from ..signals.dataset import DatasetSpec, default_dataset
from ..signals.emg import EMGModel, synthesize_emg
from ..signals.force import concatenate_profiles, constant_profile
from ..uwb.packets import payload_symbol_count
from .metrics import Summary, summarize

__all__ = [
    "FIG3_PATTERN_ID",
    "PAPER_FIG3",
    "PAPER_FIG5",
    "PAPER_FIG6",
    "PAPER_SYMBOLS",
    "Fig2Result",
    "Fig3Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "SymbolComparison",
    "dac_resolution_config",
    "run_fig2",
    "run_fig3",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_symbol_comparison",
    "run_table1",
]

def dac_resolution_config(bits: int) -> DATCConfig:
    """The D-ATC operating point of one DAC-resolution sweep point.

    The interval ladder keeps the same top fraction (0.48 of the frame) at
    every resolution, so only the quantisation granularity changes; the
    symbol cost per event is ``1 + bits``.
    """
    n_levels = 1 << int(bits)
    return DATCConfig(
        dac_bits=int(bits),
        n_levels=n_levels,
        interval_step=0.48 / n_levels,
        min_level=1,
        initial_level=n_levels // 2,
    )


# The representative pattern playing the role of the paper's Fig. 3/6
# recording (a mid-amplitude subject for which a 0.3 V threshold is
# workable but suboptimal).  Chosen once; see EXPERIMENTS.md.
FIG3_PATTERN_ID = 22

# Published reference numbers (events / correlations of Sec. III-B).
PAPER_FIG3 = {
    "atc_vth_v": 0.3,
    "atc_events": 3183,
    "datc_events": 3724,
    "datc_corr_pct": 96.41,
    "datc_vs_atc_event_ratio": 1.17,  # "almost 17% more than constant ATC"
    "datc_corr_advantage_pct": 5.0,  # "almost 5% higher w.r.t. constant"
}
PAPER_FIG5 = {
    "atc_corr_range_pct": (47.0, 95.2),
    "datc_corr_range_pct": (85.0, 98.0),
}
PAPER_FIG6 = {
    "atc_vth_v": 0.2,
    "atc_events": 5821,
    "atc_vs_datc_event_ratio": 1.56,  # "almost 56% more than D-ATC"
}
PAPER_SYMBOLS = {
    "packet_based": 600_000,  # 12 bit x 50000 samples
    "atc_0v3": 3183,
    "atc_0v2": 5821,
    "datc": 18_620,  # 3724 x 5
}


# ----------------------------------------------------------------------
# Fig. 2 — conceptual comparison on a framed snippet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EventCounts:
    """Per-frame and total event counts of one encoder run."""

    per_frame: np.ndarray

    @property
    def total(self) -> int:
        """Total events."""
        return int(self.per_frame.sum())


@dataclass(frozen=True)
class Fig2Result:
    """Event rasters for two fixed thresholds and the dynamic one.

    Mirrors Fig. 2(A)-(E): a staircase-amplitude sEMG snippet, events for
    a high and a low constant threshold, events for D-ATC, and the D-ATC
    packet contents (event + 4-bit level).
    """

    fs: float
    emg: np.ndarray
    frame_duration_s: float
    atc_high: EventCounts
    atc_low: EventCounts
    datc: EventCounts
    datc_levels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def format_table(self) -> str:
        """Events per frame for each thresholding flavour."""
        lines = [
            "Fig. 2 — events per frame (constant high / constant low / dynamic)",
            f"{'frame':>6} {'ATC high':>10} {'ATC low':>10} {'D-ATC':>10} {'level':>6}",
        ]
        n = self.datc.per_frame.size
        for f in range(n):
            level = self.datc_levels[f] if f < self.datc_levels.size else -1
            lines.append(
                f"{f:>6d} {self.atc_high.per_frame[f]:>10d} "
                f"{self.atc_low.per_frame[f]:>10d} {self.datc.per_frame[f]:>10d} "
                f"{level:>6d}"
            )
        lines.append(
            f"{'total':>6} {self.atc_high.total:>10d} {self.atc_low.total:>10d} "
            f"{self.datc.total:>10d}"
        )
        return "\n".join(lines)


def run_fig2(
    seed: int = 42,
    vth_high: float = 0.45,
    vth_low: float = 0.12,
    n_frames: int = 10,
) -> Fig2Result:
    """Regenerate the Fig. 2 concept demo.

    A staircase-amplitude synthetic sEMG (quiet, weak, strong segments) is
    encoded with two constant thresholds and with D-ATC; the constant-high
    threshold misses the weak segment, the constant-low one fires
    excessively on the strong segment, and D-ATC stays balanced.
    """
    config = DATCConfig()
    fs = 2500.0
    frame_s = config.frame_duration_s
    segment = n_frames // 3 if n_frames >= 3 else 1
    rng = np.random.default_rng(seed)
    force = concatenate_profiles(
        constant_profile(segment * frame_s, fs, 0.05),
        constant_profile(segment * frame_s, fs, 0.25),
        constant_profile((n_frames - 2 * segment) * frame_s, fs, 0.8),
    )
    emg = synthesize_emg(force, fs, EMGModel(gain_v=0.6), rng)

    def per_frame_counts(times: np.ndarray) -> np.ndarray:
        edges = np.arange(n_frames + 1) * frame_s
        counts, _ = np.histogram(times, bins=edges)
        return counts

    from ..core.atc import atc_encode  # local import keeps module header lean

    atc_high_stream, _ = atc_encode(emg, fs, ATCConfig(vth=vth_high))
    atc_low_stream, _ = atc_encode(emg, fs, ATCConfig(vth=vth_low))
    datc_stream, trace = datc_encode(emg, fs, config)

    return Fig2Result(
        fs=fs,
        emg=emg,
        frame_duration_s=frame_s,
        atc_high=EventCounts(per_frame_counts(atc_high_stream.times)),
        atc_low=EventCounts(per_frame_counts(atc_low_stream.times)),
        datc=EventCounts(per_frame_counts(datc_stream.times)),
        datc_levels=trace.frame_levels,
    )


# ----------------------------------------------------------------------
# Fig. 3 — constant 0.3 V vs dynamic on one full pattern
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """The single-pattern head-to-head of Fig. 3."""

    pattern_id: int
    atc: PipelineResult
    datc: PipelineResult

    @property
    def event_ratio(self) -> float:
        """D-ATC events / ATC events (paper: ~1.17)."""
        return self.datc.n_events / self.atc.n_events if self.atc.n_events else float("inf")

    @property
    def correlation_advantage_pct(self) -> float:
        """D-ATC correlation minus ATC correlation (paper: ~5)."""
        return self.datc.correlation_pct - self.atc.correlation_pct

    def format_table(self) -> str:
        """Paper-vs-measured rows for Fig. 3."""
        rows = [
            ("ATC (0.3 V) events", f"{PAPER_FIG3['atc_events']}", f"{self.atc.n_events}"),
            ("D-ATC events", f"{PAPER_FIG3['datc_events']}", f"{self.datc.n_events}"),
            ("event ratio D-ATC/ATC", f"{PAPER_FIG3['datc_vs_atc_event_ratio']:.2f}",
             f"{self.event_ratio:.2f}"),
            ("ATC correlation %", "~91.4", f"{self.atc.correlation_pct:.2f}"),
            ("D-ATC correlation %", f"{PAPER_FIG3['datc_corr_pct']:.2f}",
             f"{self.datc.correlation_pct:.2f}"),
            ("correlation advantage %", f"~{PAPER_FIG3['datc_corr_advantage_pct']:.0f}",
             f"{self.correlation_advantage_pct:.2f}"),
        ]
        header = f"{'Fig. 3 quantity':<26}{'paper':>12}{'measured':>12}"
        lines = [header, "-" * len(header)]
        lines += [f"{q:<26}{p:>12}{m:>12}" for q, p, m in rows]
        return "\n".join(lines)


def run_fig3(
    pattern_id: int = FIG3_PATTERN_ID,
    vth: float = 0.3,
    dataset: "DatasetSpec | None" = None,
) -> Fig3Result:
    """Regenerate Fig. 3 on the representative pattern."""
    dataset = dataset if dataset is not None else default_dataset()
    pattern = dataset.pattern(pattern_id)
    return Fig3Result(
        pattern_id=pattern_id,
        atc=run_atc(pattern, ATCConfig(vth=vth)),
        datc=run_datc(pattern),
    )


# ----------------------------------------------------------------------
# Fig. 5 — correlations across the 190-pattern dataset
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Result:
    """Dataset-wide correlation comparison (Fig. 5)."""

    atc: DatasetSweepResult
    datc: DatasetSweepResult

    @property
    def atc_summary(self) -> Summary:
        """ATC correlation summary."""
        return summarize(self.atc.correlations_pct)

    @property
    def datc_summary(self) -> Summary:
        """D-ATC correlation summary."""
        return summarize(self.datc.correlations_pct)

    def format_table(self) -> str:
        """Ranges and stability, paper vs measured."""
        a, d = self.atc_summary, self.datc_summary
        pa = PAPER_FIG5["atc_corr_range_pct"]
        pd_ = PAPER_FIG5["datc_corr_range_pct"]
        lines = [
            f"Fig. 5 — correlation over {a.n} patterns",
            f"{'scheme':<10}{'paper range':>18}{'measured range':>20}{'mean':>8}",
            f"{'ATC 0.3V':<10}{f'{pa[0]:.0f}-{pa[1]:.1f}%':>18}"
            f"{f'{a.minimum:.1f}-{a.maximum:.1f}%':>20}{a.mean:>7.1f}%",
            f"{'D-ATC':<10}{f'{pd_[0]:.0f}-{pd_[1]:.0f}%':>18}"
            f"{f'{d.minimum:.1f}-{d.maximum:.1f}%':>20}{d.mean:>7.1f}%",
            f"event-count spread (std/mean): ATC {self.atc.event_spread:.2f}, "
            f"D-ATC {self.datc.event_spread:.2f}",
        ]
        return "\n".join(lines)


def run_fig5(
    n_patterns: "int | None" = None,
    vth: float = 0.3,
    dataset: "DatasetSpec | None" = None,
    jobs: "int | None" = None,
    backend: "str | None" = None,
    store: "ResultStore | None" = None,
) -> Fig5Result:
    """Regenerate Fig. 5 (full dataset unless ``n_patterns`` limits it).

    Both schemes run through the spec-driven batched pipeline
    (:meth:`repro.api.Experiment.dataset_sweep`) in one pass, so each
    pattern is synthesised once for both; ``jobs`` and ``backend``
    shard the sweep across the execution runtime's workers
    (``backend="process"`` is the many-core path).  With a ``store``, a
    repeated run skips every already-evaluated pattern.
    """
    dataset = dataset if dataset is not None else default_dataset()
    atc = Experiment(
        ExperimentSpec.for_scheme("atc", ATCConfig(vth=vth)), store=store
    )
    datc = Experiment(ExperimentSpec.for_scheme("datc"), store=store)
    atc_result, datc_result = atc.dataset_sweep(
        dataset, limit=n_patterns, jobs=jobs, backend=backend, alongside=(datc,)
    )
    return Fig5Result(atc=atc_result, datc=datc_result)


# ----------------------------------------------------------------------
# Fig. 6 — iso-correlation event cost (ATC at 0.2 V)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Result:
    """Fig. 6: lowering ATC's threshold to match D-ATC's correlation."""

    pattern_id: int
    atc_low: PipelineResult  # ATC at 0.2 V
    datc: PipelineResult

    @property
    def event_ratio(self) -> float:
        """ATC(0.2 V) events / D-ATC events (paper: ~1.56)."""
        return self.atc_low.n_events / self.datc.n_events if self.datc.n_events else float("inf")

    @property
    def correlation_gap_pct(self) -> float:
        """|ATC(0.2 V) - D-ATC| correlation (paper: ~0, same by design)."""
        return abs(self.atc_low.correlation_pct - self.datc.correlation_pct)

    def format_table(self) -> str:
        """Paper-vs-measured rows for Fig. 6."""
        rows = [
            ("ATC (0.2 V) events", f"{PAPER_FIG6['atc_events']}", f"{self.atc_low.n_events}"),
            ("D-ATC events", f"{PAPER_FIG3['datc_events']}", f"{self.datc.n_events}"),
            ("event ratio ATC/D-ATC", f"{PAPER_FIG6['atc_vs_datc_event_ratio']:.2f}",
             f"{self.event_ratio:.2f}"),
            ("ATC (0.2 V) correlation %", "~96", f"{self.atc_low.correlation_pct:.2f}"),
            ("D-ATC correlation %", f"{PAPER_FIG3['datc_corr_pct']:.2f}",
             f"{self.datc.correlation_pct:.2f}"),
        ]
        header = f"{'Fig. 6 quantity':<28}{'paper':>12}{'measured':>12}"
        lines = [header, "-" * len(header)]
        lines += [f"{q:<28}{p:>12}{m:>12}" for q, p, m in rows]
        return "\n".join(lines)


def run_fig6(
    pattern_id: int = FIG3_PATTERN_ID,
    vth: float = 0.2,
    dataset: "DatasetSpec | None" = None,
) -> Fig6Result:
    """Regenerate Fig. 6 (same pattern as Fig. 3, lower ATC threshold)."""
    dataset = dataset if dataset is not None else default_dataset()
    pattern = dataset.pattern(pattern_id)
    return Fig6Result(
        pattern_id=pattern_id,
        atc_low=run_atc(pattern, ATCConfig(vth=vth)),
        datc=run_datc(pattern),
    )


# ----------------------------------------------------------------------
# Fig. 7 — events-vs-correlation trade-off for four random patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Result:
    """ATC threshold sweeps vs the D-ATC operating point (Fig. 7)."""

    pattern_ids: "tuple[int, ...]"
    atc_sweeps: "dict[int, list[SweepPoint]]"
    datc_points: "dict[int, SweepPoint]"

    def format_table(self) -> str:
        """Events / correlation at each threshold, per pattern."""
        lines = ["Fig. 7 — events vs correlation trade-off"]
        for pid in self.pattern_ids:
            lines.append(f"pattern {pid}:")
            lines.append(f"  {'Vth (V)':>9} {'events':>8} {'corr %':>8}")
            for pt in self.atc_sweeps[pid]:
                lines.append(
                    f"  {pt.parameter:>9.2f} {pt.n_events:>8d} {pt.correlation_pct:>8.2f}"
                )
            d = self.datc_points[pid]
            lines.append(
                f"  {'D-ATC':>9} {d.n_events:>8d} {d.correlation_pct:>8.2f}"
            )
        return "\n".join(lines)

    def datc_dominates(self, pid: int) -> bool:
        """True when no swept ATC point beats D-ATC on *both* axes.

        The paper's reading of Fig. 7: ATC only reaches D-ATC's
        correlation by spending (many) more events.
        """
        d = self.datc_points[pid]
        for pt in self.atc_sweeps[pid]:
            if pt.correlation_pct >= d.correlation_pct and pt.n_events <= d.n_events:
                return False
        return True


def run_fig7(
    pattern_ids: "tuple[int, ...]" = (5, 23, 57, 120),
    vths: "tuple[float, ...]" = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6),
    dataset: "DatasetSpec | None" = None,
    jobs: "int | None" = None,
    backend: "str | None" = None,
    store: "ResultStore | None" = None,
) -> Fig7Result:
    """Regenerate Fig. 7 on four (fixed-seed "random") patterns.

    Each pattern's threshold sweep is one generic spec-substitution sweep
    (:meth:`repro.api.Experiment.sweep` on ``"encoder.config.vth"``);
    ``jobs``/``backend`` parallelise it on the execution runtime and a
    ``store`` memoises every operating point.
    """
    dataset = dataset if dataset is not None else default_dataset()
    atc = Experiment(ExperimentSpec.for_scheme("atc"), store=store)
    datc = Experiment(ExperimentSpec.for_scheme("datc"), store=store)
    atc_sweeps = {}
    datc_points = {}
    for pid in pattern_ids:
        pattern = dataset.pattern(pid)
        atc_sweeps[pid] = atc.sweep(
            pattern,
            "encoder.config.vth",
            [float(v) for v in vths],
            jobs=jobs,
            backend=backend,
        )
        datc_points[pid] = datc.evaluate(pattern, parameter=-1.0)
    return Fig7Result(
        pattern_ids=tuple(pattern_ids), atc_sweeps=atc_sweeps, datc_points=datc_points
    )


# ----------------------------------------------------------------------
# Sec. III-B — transmitted-symbol comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymbolComparison:
    """The Sec. III-B symbol-count bullet list as a table."""

    pattern_id: int
    n_samples: int
    packet_symbols: int
    atc_0v3_symbols: int
    atc_0v2_symbols: int
    datc_symbols: int
    datc_events: int

    def format_table(self) -> str:
        """Paper-vs-measured symbol counts for the 20 s wave."""
        rows = [
            ("packet-based (12-bit ADC)", PAPER_SYMBOLS["packet_based"], self.packet_symbols),
            ("ATC (0.3 V)", PAPER_SYMBOLS["atc_0v3"], self.atc_0v3_symbols),
            ("ATC (0.2 V)", PAPER_SYMBOLS["atc_0v2"], self.atc_0v2_symbols),
            ("D-ATC (events x 5)", PAPER_SYMBOLS["datc"], self.datc_symbols),
        ]
        header = f"{'system':<28}{'paper symbols':>16}{'measured':>12}"
        lines = [header, "-" * len(header)]
        lines += [f"{q:<28}{p:>16,}{m:>12,}" for q, p, m in rows]
        lines.append(
            f"D-ATC / packet ratio: paper {PAPER_SYMBOLS['datc'] / PAPER_SYMBOLS['packet_based']:.4f}, "
            f"measured {self.datc_symbols / self.packet_symbols:.4f}"
        )
        return "\n".join(lines)


def run_symbol_comparison(
    pattern_id: int = FIG3_PATTERN_ID,
    dataset: "DatasetSpec | None" = None,
) -> SymbolComparison:
    """Regenerate the Sec. III-B transmitted-symbol accounting."""
    dataset = dataset if dataset is not None else default_dataset()
    pattern = dataset.pattern(pattern_id)
    atc_03 = run_atc(pattern, ATCConfig(vth=0.3))
    atc_02 = run_atc(pattern, ATCConfig(vth=0.2))
    datc = run_datc(pattern)
    return SymbolComparison(
        pattern_id=pattern_id,
        n_samples=pattern.n_samples,
        packet_symbols=payload_symbol_count(pattern.n_samples, adc_bits=12),
        atc_0v3_symbols=atc_03.n_symbols,
        atc_0v2_symbols=atc_02.n_symbols,
        datc_symbols=datc.n_symbols,
        datc_events=datc.n_events,
    )


# ----------------------------------------------------------------------
# Table I — synthesis results
# ----------------------------------------------------------------------
def run_table1(config: "DATCConfig | None" = None) -> TableOne:
    """Regenerate Table I (see :mod:`repro.hardware.report`)."""
    return generate_table1(config)
