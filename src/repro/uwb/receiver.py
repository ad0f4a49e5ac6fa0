"""Energy-detection receiver model.

The paper's radio (refs. [7], [11]) targets *energy-detection* receivers:
the RX squares and integrates the band-limited input over a window and
compares against a threshold — no carrier recovery, matching the
all-digital low-complexity philosophy.

Detection statistics: over an integration window of time-bandwidth product
``TW`` the statistic is chi-square with ``2TW`` degrees of freedom (central
under noise, noncentral with lambda = 2*Es/N0 under signal), giving the
classic Pd/Pfa trade-off implemented here with scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyDetector", "detection_probability", "noise_psd_w_per_hz"]

_BOLTZMANN = 1.380649e-23


def noise_psd_w_per_hz(noise_figure_db: float = 6.0, temperature_k: float = 290.0) -> float:
    """One-sided noise PSD N0 at the detector input (kTF)."""
    if temperature_k <= 0:
        raise ValueError(f"temperature_k must be positive, got {temperature_k}")
    return _BOLTZMANN * temperature_k * 10.0 ** (noise_figure_db / 10.0)


def detection_probability(
    es_over_n0: float, time_bandwidth: float = 5.0, pfa: float = 1e-3
) -> float:
    """Energy-detector Pd at a fixed false-alarm rate.

    ``es_over_n0`` is the received pulse energy over N0 (linear).  The
    statistic has ``2*TW`` degrees of freedom; the threshold is set from
    ``pfa`` on the central chi-square and Pd evaluated on the noncentral
    one with ``lambda = 2 Es/N0``.
    """
    if es_over_n0 < 0:
        raise ValueError(f"es_over_n0 must be non-negative, got {es_over_n0}")
    if time_bandwidth <= 0:
        raise ValueError(f"time_bandwidth must be positive, got {time_bandwidth}")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must be in (0, 1), got {pfa}")
    from scipy import stats  # deferred: keeps scipy out of ``import repro``

    dof = 2.0 * time_bandwidth
    threshold = stats.chi2.isf(pfa, dof)
    return float(stats.ncx2.sf(threshold, dof, 2.0 * es_over_n0))


@dataclass(frozen=True)
class EnergyDetector:
    """A parameterised energy-detection receiver.

    Attributes
    ----------
    time_bandwidth:
        Integration-window time-bandwidth product (TW).
    pfa:
        Per-slot false-alarm probability the threshold is set for.
    noise_figure_db:
        Receiver noise figure (sets N0 through kTF).
    """

    time_bandwidth: float = 5.0
    pfa: float = 1e-3
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        if self.time_bandwidth <= 0:
            raise ValueError(f"time_bandwidth must be positive, got {self.time_bandwidth}")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must be in (0, 1), got {self.pfa}")

    @property
    def n0_w_per_hz(self) -> float:
        """Input-referred one-sided noise PSD."""
        return noise_psd_w_per_hz(self.noise_figure_db)

    def pd_for_energy(self, rx_energy_j: float) -> float:
        """Detection probability for a received pulse energy."""
        return detection_probability(
            rx_energy_j / self.n0_w_per_hz, self.time_bandwidth, self.pfa
        )

    def erasure_prob_for_energy(self, rx_energy_j: float) -> float:
        """Miss probability (1 - Pd): feeds the pulse-domain channel."""
        return 1.0 - self.pd_for_energy(rx_energy_j)

    def false_pulse_rate_hz(self, symbol_period_s: float) -> float:
        """False alarms per second when slots are checked continuously."""
        if symbol_period_s <= 0:
            raise ValueError(f"symbol_period_s must be positive, got {symbol_period_s}")
        return self.pfa / symbol_period_s
