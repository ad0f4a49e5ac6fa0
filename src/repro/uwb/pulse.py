"""IR-UWB pulse shapes and FCC spectral-mask compliance.

IR-UWB radiates nanosecond-scale pulses whose power spectral density must
stay below the FCC Part 15 limit of **-41.3 dBm/MHz** in the 3.1-10.6 GHz
band (paper refs. [4], [5]).  Gaussian-derivative pulses are the standard
family: differentiating shifts the spectral peak upward, and the 5th
derivative with tau ~ 51 ps is the classic fit to the indoor mask.  The
transmitter of ref. [11] (the one the paper's system reuses) spans
0.3-4.4 GHz; its behavioural stand-in here is a low-order derivative with
a larger tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "gaussian_derivative",
    "pulse_waveform",
    "pulse_spectrum_dbm_per_mhz",
    "fcc_indoor_mask_dbm_per_mhz",
    "check_fcc_compliance",
    "PulseShape",
]


def gaussian_derivative(t: np.ndarray, tau: float, order: int = 5) -> np.ndarray:
    """The ``order``-th derivative of a Gaussian, peak-normalised.

    Uses the Hermite-polynomial identity
    ``d^n/dt^n exp(-t^2/(2 tau^2)) =
    (-1/(tau*sqrt(2)))^n * H_n(t/(tau*sqrt(2))) * exp(-t^2/(2 tau^2))``
    with the physicists' Hermite polynomials ``H_n``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    from scipy.special import eval_hermite  # deferred: keeps scipy out of ``import repro``

    t = np.asarray(t, dtype=float)
    u = t / (tau * np.sqrt(2.0))
    w = ((-1.0) ** order) * eval_hermite(order, u) * np.exp(-u * u)
    peak = np.max(np.abs(w))
    if peak > 0:
        w = w / peak
    return w


@dataclass(frozen=True)
class PulseShape:
    """A sampled UWB pulse: waveform plus its timing metadata.

    Attributes
    ----------
    waveform:
        Peak-normalised samples (unit: volts at 1 V peak drive).
    fs_hz:
        Sampling rate of the waveform (tens of GHz).
    tau_s:
        Gaussian time constant.
    order:
        Derivative order.
    """

    waveform: np.ndarray
    fs_hz: float
    tau_s: float
    order: int

    @property
    def duration_s(self) -> float:
        """Span of the sampled waveform."""
        return self.waveform.size / self.fs_hz

    @property
    def energy_norm(self) -> float:
        """Energy of the unit-peak waveform into 1 ohm (V^2 * s)."""
        return float(np.sum(self.waveform ** 2) / self.fs_hz)

    def peak_frequency_hz(self) -> float:
        """Frequency of the spectral peak."""
        spectrum = np.abs(np.fft.rfft(self.waveform))
        freqs = np.fft.rfftfreq(self.waveform.size, d=1.0 / self.fs_hz)
        return float(freqs[int(np.argmax(spectrum))])


def pulse_waveform(
    order: int = 5,
    tau_s: float = 51e-12,
    fs_hz: float = 50e9,
    span_taus: float = 10.0,
) -> PulseShape:
    """Sample a Gaussian-derivative UWB pulse.

    ``span_taus`` controls the window width (in units of tau on each
    side); 10 tau comfortably contains all derivatives up to order 7.
    """
    if fs_hz <= 0:
        raise ValueError(f"fs_hz must be positive, got {fs_hz}")
    half = span_taus * tau_s
    n = max(8, int(round(2 * half * fs_hz)))
    t = (np.arange(n) - n / 2) / fs_hz
    return PulseShape(
        waveform=gaussian_derivative(t, tau_s, order),
        fs_hz=fs_hz,
        tau_s=tau_s,
        order=order,
    )


def pulse_spectrum_dbm_per_mhz(
    shape: PulseShape,
    prf_hz: float,
    peak_amplitude_v: float = 0.5,
    load_ohm: float = 50.0,
) -> "tuple[np.ndarray, np.ndarray]":
    """Average PSD of a pulse train in dBm/MHz.

    For pulses of energy spectral density ``|P(f)|^2 / R`` repeated at
    ``prf_hz`` (uncorrelated polarity/payload assumed, so no line
    spectrum), the average PSD is ``prf * |P(f)|^2 / R`` W/Hz.

    Returns ``(freqs_hz, psd_dbm_per_mhz)``.
    """
    if prf_hz <= 0:
        raise ValueError(f"prf_hz must be positive, got {prf_hz}")
    if peak_amplitude_v <= 0:
        raise ValueError(f"peak_amplitude_v must be positive, got {peak_amplitude_v}")
    w = shape.waveform * peak_amplitude_v
    spectrum = np.fft.rfft(w) / shape.fs_hz  # V/Hz (continuous-time FT approx)
    freqs = np.fft.rfftfreq(w.size, d=1.0 / shape.fs_hz)
    esd_w_per_hz = (np.abs(spectrum) ** 2) / load_ohm  # J/Hz
    psd_w_per_hz = esd_w_per_hz * prf_hz
    psd_mw_per_mhz = psd_w_per_hz * 1e3 * 1e6
    with np.errstate(divide="ignore"):
        psd_dbm = 10.0 * np.log10(psd_mw_per_mhz)
    return freqs, psd_dbm


def fcc_indoor_mask_dbm_per_mhz(freqs_hz: np.ndarray) -> np.ndarray:
    """The FCC Part 15 indoor UWB emission mask (dBm/MHz EIRP).

    Piecewise limits from the First Report and Order (2002):
    -41.3 below 960 MHz, -75.3 in 0.96-1.61 GHz, -53.3 in 1.61-1.99 GHz,
    -51.3 in 1.99-3.1 GHz, -41.3 in 3.1-10.6 GHz, -51.3 above.
    """
    f = np.asarray(freqs_hz, dtype=float)
    mask = np.full(f.shape, -41.3)
    mask[(f >= 0.96e9) & (f < 1.61e9)] = -75.3
    mask[(f >= 1.61e9) & (f < 1.99e9)] = -53.3
    mask[(f >= 1.99e9) & (f < 3.1e9)] = -51.3
    mask[(f >= 3.1e9) & (f < 10.6e9)] = -41.3
    mask[f >= 10.6e9] = -51.3
    return mask


def check_fcc_compliance(
    shape: PulseShape,
    prf_hz: float,
    peak_amplitude_v: float = 0.5,
    load_ohm: float = 50.0,
) -> "tuple[bool, float]":
    """Check a pulse train against the FCC indoor mask.

    Returns ``(compliant, worst_margin_db)`` where a positive margin means
    the PSD sits below the mask everywhere.  The aggressive duty cycling
    of event-driven transmission is exactly what keeps the margin
    comfortable at biomedical event rates (a few kHz PRF worst case).
    """
    freqs, psd = pulse_spectrum_dbm_per_mhz(shape, prf_hz, peak_amplitude_v, load_ohm)
    mask = fcc_indoor_mask_dbm_per_mhz(freqs)
    band = freqs > 0
    margin = mask[band] - psd[band]
    worst = float(np.min(margin))
    return worst >= 0.0, worst
