"""Correlation metrics — the paper's figure of merit.

The evaluation reports "% correlation w.r.t. raw muscle force": the Pearson
correlation coefficient (x100) between the receiver-side reconstruction and
the ARV envelope of the original sEMG.  Correlation is scale- and
offset-invariant, which is what makes event-rate (ATC, arbitrary units) and
threshold-level (D-ATC, volts) reconstructions directly comparable.

Each batched function is one numpy path that matches its scalar
counterpart bit for bit; batched scoring is
:func:`resample_rows_to_length` followed by :func:`pearson_batch`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pearson_r",
    "pearson_batch",
    "correlation_percent",
    "resample_to_length",
    "resample_rows_to_length",
    "aligned_correlation_percent",
    "aligned_correlation_percent_batch",
]


def pearson_r(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient, defined as 0 for constant inputs.

    A constant reconstruction carries no force information, so treating
    its correlation as 0 (rather than NaN) gives degenerate encoders the
    score they deserve in sweeps.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two samples to correlate")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.sum(da * db) / denom, -1.0, 1.0))


def pearson_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two ``(n_rows, n_samples)`` matrices.

    One vectorised call replacing ``n_rows`` :func:`pearson_r` calls — the
    scoring half of the batched receiver.  Each row matches the scalar
    function bit for bit (numpy's axis reductions use the same pairwise
    summation as the 1-D ones), including the constant-input -> 0 rule.
    """
    # C-contiguity matters for exactness, not just speed: numpy's pairwise
    # summation blocks differently over strided rows, which would break the
    # bit-for-bit match with the scalar (contiguous 1-D) path.
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"need 2-D (n_rows, n_samples) inputs, got {a.shape} and {b.shape}"
        )
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[1] < 2:
        raise ValueError("need at least two samples per row to correlate")
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.sum(da * da, axis=1) * np.sum(db * db, axis=1))
    num = np.sum(da * db, axis=1)
    ok = denom != 0.0
    out = np.zeros(a.shape[0])
    out[ok] = np.clip(num[ok] / denom[ok], -1.0, 1.0)
    return out


def correlation_percent(a: np.ndarray, b: np.ndarray) -> float:
    """The paper's metric: ``100 * pearson_r``."""
    return 100.0 * pearson_r(a, b)


def resample_to_length(x: np.ndarray, n_out: int) -> np.ndarray:
    """Linear-interpolation resample of ``x`` onto ``n_out`` points.

    Used to bring a reconstruction (on the event-clock grid) and the
    ground-truth envelope (on the dataset grid) onto a common time base;
    both cover the same duration, so index space maps linearly.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot resample an empty array")
    if n_out < 1:
        raise ValueError(f"n_out must be >= 1, got {n_out}")
    if x.size == n_out:
        return x.copy()
    src = np.linspace(0.0, 1.0, x.size)
    dst = np.linspace(0.0, 1.0, n_out)
    return np.interp(dst, src, x)


def resample_rows_to_length(x: np.ndarray, n_out: int) -> np.ndarray:
    """Row-wise :func:`resample_to_length` of an ``(n_rows, m)`` matrix.

    All rows share the same source grid, so the interval lookup and the
    interpolation weights are computed once and applied to every row in
    vectorised ops.  Each row equals ``np.interp`` on that row bit for bit:
    the same ``slope * (x - xp[j]) + fp[j]`` arithmetic is used, and grid
    points that coincide with a source point (including the right
    endpoint) take the source value exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"need a 2-D (n_rows, m) matrix, got shape {x.shape}")
    m = x.shape[1]
    if m == 0:
        raise ValueError("cannot resample empty rows")
    if n_out < 1:
        raise ValueError(f"n_out must be >= 1, got {n_out}")
    if m == n_out:
        return x.copy()
    if m == 1:
        return np.repeat(x, n_out, axis=1)
    src = np.linspace(0.0, 1.0, m)
    dst = np.linspace(0.0, 1.0, n_out)
    j = np.clip(np.searchsorted(src, dst, side="right") - 1, 0, m - 2)
    # np.take keeps the gathers C-ordered (plain fancy indexing on axis 1
    # would yield F-ordered temporaries and a costly relayout); rows must
    # come back contiguous so downstream reductions match the 1-D path
    # bit for bit.
    lo = np.take(x, j, axis=1)
    hi = np.take(x, j + 1, axis=1)
    slope = (hi - lo) / (src[j + 1] - src[j])
    slope *= dst - src[j]
    slope += lo
    # np.interp special-cases the right endpoint (no slope arithmetic).
    slope[:, dst >= src[-1]] = x[:, -1][:, None]
    return slope


def aligned_correlation_percent(
    reconstruction: np.ndarray, reference: np.ndarray
) -> float:
    """Correlation % after resampling the reconstruction onto the reference grid."""
    recon = resample_to_length(reconstruction, np.asarray(reference).size)
    return correlation_percent(recon, reference)


def aligned_correlation_percent_batch(
    reconstructions: np.ndarray, references: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`aligned_correlation_percent` in two vectorised calls.

    ``reconstructions`` is ``(n_rows, m)`` (e.g. the output of
    :func:`repro.rx.decoders.reconstruct_batch`); ``references`` is the
    stacked ground-truth matrix ``(n_rows, n_ref)``.  Returns one
    correlation %% per row, matching the scalar loop bit for bit:
    :func:`resample_rows_to_length` onto the reference grid, then
    :func:`pearson_batch`, each validating its own input.
    """
    references = np.asarray(references, dtype=float)
    if references.ndim != 2:
        raise ValueError(
            f"references must be 2-D (n_rows, n_ref), got shape {references.shape}"
        )
    recons = resample_rows_to_length(reconstructions, references.shape[1])
    return 100.0 * pearson_batch(recons, references)
