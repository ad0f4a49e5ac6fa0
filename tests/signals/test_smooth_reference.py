"""Bit-identity of :func:`smooth_profile` against its per-sample reference.

The reference below is the original implementation: the forward-backward
exponential recurrence stepped on ``np.float64`` scalars, one sample at a
time.  The library runs the same recurrence, in the same operation order,
on Python floats; IEEE double arithmetic makes the two bit-identical, and
these tests hold it to ``np.array_equal`` (never approximate equality).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.signals.force as force
from repro.signals.dataset import DatasetSpec
from repro.signals.force import (
    ramp_profile,
    smooth_profile,
    staircase_profile,
    trapezoid_profile,
)


def reference_smooth_profile(
    profile: np.ndarray, fs: float, cutoff_hz: float = 2.0
) -> np.ndarray:
    """The per-sample ``np.float64`` forward-backward loop."""
    profile = np.asarray(profile, dtype=float)
    if profile.size == 0:
        return profile.copy()
    alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz / fs)
    forward = np.empty_like(profile)
    acc = profile[0]
    for i, x in enumerate(profile):
        acc += alpha * (x - acc)
        forward[i] = acc
    backward = np.empty_like(profile)
    acc = forward[-1]
    for i in range(profile.size - 1, -1, -1):
        acc += alpha * (forward[i] - acc)
        backward[i] = acc
    return np.clip(backward, 0.0, 1.0)


levels = st.floats(0.0, 1.0)
sample_rates = st.sampled_from([100.0, 977.0, 1000.0, 2500.0, 48000.0])
cutoffs = st.sampled_from([0.05, 0.5, 2.0, 7.3, 40.0])


@st.composite
def profiles(draw):
    """Staircase, ramp or trapezoid force profiles, as short as 1 sample."""
    fs = draw(sample_rates)
    kind = draw(st.sampled_from(["staircase", "ramp", "trapezoid", "tiny"]))
    if kind == "staircase":
        steps = draw(st.lists(levels, min_size=1, max_size=6))
        n_seg = draw(st.integers(1, 60))
        profile = staircase_profile(steps, n_seg / fs, fs)
    elif kind == "ramp":
        n = draw(st.integers(1, 300))
        profile = ramp_profile(n / fs, fs, draw(levels), draw(levels))
    elif kind == "trapezoid":
        rise, hold, fall = (draw(st.integers(0, 80)) for _ in range(3))
        profile = trapezoid_profile(
            rise / fs, hold / fs, fall / fs, fs, draw(levels), draw(levels)
        )
    else:
        profile = np.array(draw(st.lists(levels, min_size=1, max_size=2)))
    return profile, fs


@settings(max_examples=200, deadline=None)
@given(case=profiles(), cutoff_hz=cutoffs)
def test_matches_reference_bit_for_bit(case, cutoff_hz):
    profile, fs = case
    got = smooth_profile(profile, fs, cutoff_hz)
    want = reference_smooth_profile(profile, fs, cutoff_hz)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_lengths_one_and_two_match_reference():
    for profile in ([0.4], [0.0, 0.9], [1.0, 0.0]):
        for fs in (1.0, 2500.0):
            got = smooth_profile(np.array(profile), fs, cutoff_hz=2.0)
            assert np.array_equal(got, reference_smooth_profile(profile, fs))


def test_dataset_profiles_match_reference(monkeypatch):
    """The raw (pre-smoothing) force profiles of 24 paper-length patterns."""
    captured = []

    def capture(profile, fs, cutoff_hz=2.0):
        captured.append((np.array(profile), fs, cutoff_hz))
        return smooth_profile(profile, fs, cutoff_hz)

    monkeypatch.setattr(force, "smooth_profile", capture)
    dataset = DatasetSpec(seed=2016)
    for i in range(24):
        dataset.pattern(i)
    monkeypatch.undo()

    # Ids 0, 9 and 18 follow the canonical protocol; the rest are its
    # randomised variants, so both generators are covered.
    assert len(captured) == 24
    for profile, fs, cutoff_hz in captured:
        assert profile.size == 50_000
        got = smooth_profile(profile, fs, cutoff_hz)
        assert np.array_equal(got, reference_smooth_profile(profile, fs, cutoff_hz))
