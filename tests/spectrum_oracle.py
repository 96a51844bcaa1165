"""Turbulence-spectrum formulas that only the tests evaluate.

The library never needs the von Karman density itself (the coupling is a
closed form with the outer scale sent to zero) nor the Fried coherence
length; the tests use them as independent references for the total rate
and for the near-field decay.
"""
from __future__ import annotations

import math

from turbulink.turbulence import SPECTRUM_AMPLITUDE


def vonkarman_psd(K: float, cn2: float, kappa_0: float) -> float:
    """von Karman refractive-index power spectral density at radial wavenumber K,
    outer-scale wavenumber kappa_0 (1/m)."""
    return SPECTRUM_AMPLITUDE * (2.0 * math.pi) ** 3 * cn2 / (K * K + kappa_0**2) ** (11.0 / 6.0)


def fried_parameter(wavelength: float, cn2: float, z: float) -> float:
    """Fried coherence length r_0 = 0.185 (lambda^2 / (C_n^2 z))^{3/5} (m)."""
    return 0.185 * (wavelength**2 / (cn2 * z)) ** 0.6
