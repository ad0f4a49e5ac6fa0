"""The paper's primary contribution: ATC and D-ATC event encoders."""

from .atc import ATCTrace, atc_encode, rising_edges
from .config import PAPER_CLOCK_HZ, ATCConfig, DATCConfig
from .datc import DATCTrace, datc_encode
from .encoders import (
    ATCEncoder,
    DATCEncoder,
    StreamingEncoder,
    atc_encode_batch,
    datc_encode_batch,
    encode_batch,
)
from .events import EventStream, merge_streams
from .intervals import interval_levels_float, select_level
from .pipeline import (
    DEFAULT_FS_OUT,
    DEFAULT_WINDOW_S,
    PipelineResult,
    run_atc,
    run_datc,
)
from .multichannel import MultiChannelDATC, MultiChannelResult
from .predictor import ThresholdPredictor

__all__ = [
    "ATCTrace",
    "atc_encode",
    "rising_edges",
    "PAPER_CLOCK_HZ",
    "ATCConfig",
    "DATCConfig",
    "DATCTrace",
    "datc_encode",
    "StreamingEncoder",
    "ATCEncoder",
    "DATCEncoder",
    "encode_batch",
    "atc_encode_batch",
    "datc_encode_batch",
    "EventStream",
    "merge_streams",
    "interval_levels_float",
    "select_level",
    "DEFAULT_FS_OUT",
    "DEFAULT_WINDOW_S",
    "PipelineResult",
    "run_atc",
    "run_datc",
    "ThresholdPredictor",
    "MultiChannelDATC",
    "MultiChannelResult",
]
