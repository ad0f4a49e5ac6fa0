"""Receiver-side DSP: event-rate windowing, envelope reconstruction,
correlation metrics, and the batched/streaming decoder engine."""

from .calibration import (
    ForceCalibration,
    calibrate_mvc,
    rmse_mvc,
    tracking_report,
)
from .correlation import (
    aligned_correlation_percent,
    aligned_correlation_percent_batch,
    correlation_percent,
    pearson_batch,
    pearson_r,
    resample_rows_to_length,
    resample_to_length,
)
from .decoders import (
    StreamingDecoder,
    binned_counts_batch,
    event_rate_batch,
    level_zoh_batch,
    reconstruct_batch,
    stream_chunks,
)
from .reconstruction import (
    hybrid_combine,
    level_zoh,
    reconstruct_hybrid,
    reconstruct_levels,
    reconstruct_rate,
    silence_decay,
)
from .windowing import (
    binned_counts,
    event_rate,
    exponential_rate,
    fold_final_bins,
    grid_centers,
    grid_edges,
    stream_bins,
)

__all__ = [
    "ForceCalibration",
    "calibrate_mvc",
    "rmse_mvc",
    "tracking_report",
    "aligned_correlation_percent",
    "aligned_correlation_percent_batch",
    "correlation_percent",
    "pearson_batch",
    "pearson_r",
    "resample_rows_to_length",
    "resample_to_length",
    "StreamingDecoder",
    "binned_counts_batch",
    "event_rate_batch",
    "level_zoh_batch",
    "reconstruct_batch",
    "stream_chunks",
    "hybrid_combine",
    "level_zoh",
    "reconstruct_hybrid",
    "reconstruct_levels",
    "reconstruct_rate",
    "silence_decay",
    "binned_counts",
    "event_rate",
    "exponential_rate",
    "fold_final_bins",
    "grid_centers",
    "grid_edges",
    "stream_bins",
]
