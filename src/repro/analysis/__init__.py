"""Experiment drivers for the paper's evaluation.

Parameter sweeps run through :class:`repro.api.Experiment`
(``sweep`` / ``dataset_sweep`` / ``link_sweep``); their result types are
re-exported here.
"""

from ..api import DatasetSweepResult, SweepPoint
from .experiments import (
    FIG3_PATTERN_ID,
    PAPER_FIG3,
    PAPER_FIG5,
    PAPER_FIG6,
    PAPER_SYMBOLS,
    EventCounts,
    Fig2Result,
    Fig3Result,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    SymbolComparison,
    dac_resolution_config,
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_fig7,
    run_symbol_comparison,
    run_table1,
)
from .metrics import Summary, summarize

__all__ = [
    "FIG3_PATTERN_ID",
    "PAPER_FIG3",
    "PAPER_FIG5",
    "PAPER_FIG6",
    "PAPER_SYMBOLS",
    "EventCounts",
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
    "Summary",
    "summarize",
    "DatasetSweepResult",
    "SweepPoint",
]
