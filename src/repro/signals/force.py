"""Force-profile generators for synthetic sEMG experiments.

The DATE 2015 paper evaluates D-ATC on recordings of eight subjects
performing cylindrical power-grip contractions sweeping from 70% of their
Maximum Voluntary Contraction (MVC) down to 0%.  The recordings themselves
are not public, so this module provides the *force* side of the substitute
dataset: deterministic, parameterised profiles expressed as a fraction of
MVC in ``[0, 1]``.

All generators return a ``numpy.ndarray`` of length ``round(duration * fs)``
and take the sampling rate explicitly; none of them keep hidden state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "constant_profile",
    "ramp_profile",
    "trapezoid_profile",
    "staircase_profile",
    "sinusoidal_profile",
    "rest_profile",
    "concatenate_profiles",
    "smooth_profile",
    "mvc_grip_protocol",
    "random_grip_protocol",
]


def _n_samples(duration: float, fs: float) -> int:
    """Number of samples for ``duration`` seconds at ``fs`` Hz."""
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if fs <= 0:
        raise ValueError(f"fs must be positive, got {fs}")
    return int(round(duration * fs))


def constant_profile(duration: float, fs: float, level: float) -> np.ndarray:
    """A constant contraction at ``level`` (fraction of MVC)."""
    _check_level(level)
    return np.full(_n_samples(duration, fs), float(level))


def rest_profile(duration: float, fs: float) -> np.ndarray:
    """A rest period (zero force)."""
    return np.zeros(_n_samples(duration, fs))


def ramp_profile(duration: float, fs: float, start: float, end: float) -> np.ndarray:
    """A linear force ramp from ``start`` to ``end`` (fractions of MVC)."""
    _check_level(start)
    _check_level(end)
    n = _n_samples(duration, fs)
    if n == 0:
        return np.zeros(0)
    return np.linspace(float(start), float(end), n)


def trapezoid_profile(
    rise: float,
    hold: float,
    fall: float,
    fs: float,
    level: float,
    start_level: float = 0.0,
) -> np.ndarray:
    """A trapezoidal contraction: ramp up, hold, ramp down.

    This is the canonical shape of a voluntary grip contraction in the
    paper's protocol (sustain a target %MVC, then release).
    """
    _check_level(level)
    parts = [
        ramp_profile(rise, fs, start_level, level),
        constant_profile(hold, fs, level),
        ramp_profile(fall, fs, level, start_level),
    ]
    return np.concatenate(parts)


def staircase_profile(
    levels: "list[float] | tuple[float, ...] | np.ndarray",
    segment_duration: float,
    fs: float,
) -> np.ndarray:
    """A sequence of constant segments, one per entry of ``levels``."""
    segments = [constant_profile(segment_duration, fs, lv) for lv in levels]
    if not segments:
        return np.zeros(0)
    return np.concatenate(segments)


def sinusoidal_profile(
    duration: float,
    fs: float,
    mean: float,
    amplitude: float,
    frequency_hz: float,
    phase: float = 0.0,
) -> np.ndarray:
    """A slowly-varying sinusoidal force modulation.

    Useful for exercising threshold tracking with a continuously changing
    force.  The result is clipped to ``[0, 1]``.
    """
    n = _n_samples(duration, fs)
    t = np.arange(n) / fs
    profile = mean + amplitude * np.sin(2.0 * np.pi * frequency_hz * t + phase)
    return np.clip(profile, 0.0, 1.0)


def concatenate_profiles(*profiles: np.ndarray) -> np.ndarray:
    """Concatenate force segments into a single profile."""
    if not profiles:
        return np.zeros(0)
    return np.concatenate([np.asarray(p, dtype=float) for p in profiles])


def smooth_profile(profile: np.ndarray, fs: float, cutoff_hz: float = 2.0) -> np.ndarray:
    """Low-pass smooth a profile to remove unphysiological discontinuities.

    Real muscle force cannot step instantaneously; a ~2 Hz first-order
    smoothing matches the bandwidth of voluntary force modulation.
    Implemented as a forward-backward exponential filter so the result has
    no phase lag (important: the ground truth used for correlation must be
    time-aligned with the sEMG it modulates).
    """
    if fs <= 0:
        raise ValueError(f"fs must be positive, got {fs}")
    if cutoff_hz <= 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1:
        raise ValueError(f"profile must be 1-D, got shape {profile.shape}")
    if profile.size == 0:
        return profile.copy()
    # The recurrence runs on Python floats: the same IEEE double ops in
    # the same order as on numpy scalars, so the same bits, without the
    # per-sample numpy scalar overhead.
    alpha = float(1.0 - np.exp(-2.0 * np.pi * cutoff_hz / fs))
    values = profile.tolist()
    acc = values[0]
    forward = [acc := acc + alpha * (x - acc) for x in values]
    acc = forward[-1]
    backward = [acc := acc + alpha * (x - acc) for x in reversed(forward)]
    backward.reverse()
    return np.clip(np.array(backward), 0.0, 1.0)


def mvc_grip_protocol(
    duration: float,
    fs: float,
    max_level: float = 0.7,
    n_contractions: int = 6,
    rest_fraction: float = 0.35,
    rise_fraction: float = 0.15,
) -> np.ndarray:
    """The paper's grip protocol: contractions from ``max_level`` MVC to ~0.

    ``n_contractions`` trapezoidal contractions of linearly decreasing
    target level (``max_level`` down towards 0) separated by rests, fitted
    exactly into ``duration`` seconds.  Matches the description "70% of
    their Maximum Voluntary Contraction (MVC) to 0% using a cylindrical
    power grip" over a 20 s recording.
    """
    _check_level(max_level)
    if n_contractions < 1:
        raise ValueError("n_contractions must be >= 1")
    if not 0.0 <= rest_fraction < 1.0:
        raise ValueError("rest_fraction must be in [0, 1)")

    slot = duration / n_contractions
    rest = slot * rest_fraction
    active = slot - rest
    rise = active * rise_fraction
    fall = active * rise_fraction
    hold = active - rise - fall

    # Decreasing targets: max_level, ..., down to max_level / n_contractions.
    targets = max_level * (1.0 - np.arange(n_contractions) / n_contractions)
    segments = []
    for level in targets:
        segments.append(trapezoid_profile(rise, hold, fall, fs, float(level)))
        segments.append(rest_profile(rest, fs))
    profile = concatenate_profiles(*segments)

    # Fit to the exact sample count (rounding of the segments may drift).
    n = _n_samples(duration, fs)
    if profile.size < n:
        profile = np.concatenate([profile, np.zeros(n - profile.size)])
    profile = profile[:n]
    return smooth_profile(profile, fs)


def random_grip_protocol(
    duration: float,
    fs: float,
    rng: np.random.Generator,
    max_level: float = 0.7,
    min_level: float = 0.05,
    n_contractions_range: "tuple[int, int]" = (4, 8),
) -> np.ndarray:
    """A randomised variant of :func:`mvc_grip_protocol`.

    Randomises the number of contractions, their target levels (decreasing
    on average but jittered) and the rest durations.  Used to give the 190
    synthetic patterns realistic inter-trial variability.
    """
    lo, hi = n_contractions_range
    n_contractions = int(rng.integers(lo, hi + 1))
    slot = duration / n_contractions
    segments = []
    base_targets = np.linspace(max_level, min_level, n_contractions)
    for base in base_targets:
        level = float(np.clip(base * rng.uniform(0.75, 1.2), min_level, 1.0))
        rest = slot * rng.uniform(0.2, 0.45)
        active = slot - rest
        rise = active * rng.uniform(0.1, 0.25)
        fall = active * rng.uniform(0.1, 0.25)
        hold = max(active - rise - fall, 0.0)
        segments.append(trapezoid_profile(rise, hold, fall, fs, level))
        segments.append(rest_profile(rest, fs))
    profile = concatenate_profiles(*segments)
    n = _n_samples(duration, fs)
    if profile.size < n:
        profile = np.concatenate([profile, np.zeros(n - profile.size)])
    profile = profile[:n]
    return smooth_profile(profile, fs)


def _check_level(level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"force level must be within [0, 1] of MVC, got {level}")
