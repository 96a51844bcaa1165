"""Double-Gaussian biphoton source: Schmidt spectrum and temporal modes.

The joint spectral amplitude is a product of two Gaussians, one in the sum
frequency (pump coherence, bandwidth sigma_a) and one in the difference
frequency (phase matching, bandwidth sigma_b).  Its Schmidt decomposition is
analytic: geometric eigenvalues and Hermite-Gaussian frequency modes centred
on half the pump frequency.

All spectral quantities are angular frequencies in rad/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import MAX_HERMITE_ORDER, UnsupportedOrderError, hermite_functions

MAX_EIGENVALUE_INDEX = 200


@dataclass(frozen=True)
class BiphotonSpec:
    """Bandwidths and pump frequency of the double-Gaussian biphoton state.

    sigma_a: pump-coherence bandwidth (rad/s)
    sigma_b: phase-matching bandwidth (rad/s)
    omega_p: pump angular frequency (rad/s); modes are centred on omega_p / 2
    """

    sigma_a: float
    sigma_b: float
    omega_p: float

    def __post_init__(self):
        if self.sigma_a <= 0 or self.sigma_b <= 0:
            raise ValueError("bandwidths must be positive")
        if self.omega_p <= 0:
            raise ValueError("pump frequency must be positive")

    @property
    def gaussian_scale(self) -> float:
        """Inverse-variance scale b = 2 / (sigma_a sigma_b) of the modes (s^2)."""
        return 2.0 / (self.sigma_a * self.sigma_b)

    @property
    def center(self) -> float:
        """Mode centre frequency omega_p / 2 (rad/s)."""
        return 0.5 * self.omega_p


def schmidt_eigenvalue(spec: BiphotonSpec, n: int) -> float:
    """Schmidt eigenvalue lambda_n = 4 sa sb (sa - sb)^{2n} / (sa + sb)^{2(n+1)}.

    The sequence is geometric with ratio ((sa - sb) / (sa + sb))^2, so large
    n is evaluated as lambda_0 * ratio^n.
    """
    if n < 0 or n > MAX_EIGENVALUE_INDEX:
        raise UnsupportedOrderError(f"eigenvalue index {n} outside [0, {MAX_EIGENVALUE_INDEX}]")
    sa, sb = spec.sigma_a, spec.sigma_b
    lam0 = 4.0 * sa * sb / (sa + sb) ** 2
    ratio = ((sa - sb) / (sa + sb)) ** 2
    return lam0 * ratio**n


def schmidt_number(spec: BiphotonSpec) -> float:
    """Effective number of entangled mode pairs, (sum_n lambda_n^2)^{-1}.

    For the double-Gaussian state this closes to
    (sigma_a^2 + sigma_b^2) / (2 sigma_a sigma_b).
    """
    sa, sb = spec.sigma_a, spec.sigma_b
    return (sa * sa + sb * sb) / (2.0 * sa * sb)


@dataclass(frozen=True)
class TruncatedSource:
    """Source state truncated to modes 0..max_mode and renormalized.

    weights are the renormalized Schmidt amplitudes (squares sum to one);
    discarded_mass is the eigenvalue mass left out by the truncation and
    norm_prefactor the amplitude rescaling (sum of kept eigenvalues)^{-1/2}.
    """

    weights: np.ndarray
    discarded_mass: float
    norm_prefactor: float


def truncated_source(spec: BiphotonSpec, max_mode: int) -> TruncatedSource:
    """Truncate the Schmidt expansion at max_mode and renormalize to unit norm."""
    if max_mode < 0 or max_mode > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(f"max_mode {max_mode} outside [0, {MAX_HERMITE_ORDER}]")
    lams = np.array([schmidt_eigenvalue(spec, n) for n in range(max_mode + 1)])
    kept = float(lams.sum())
    prefactor = kept**-0.5
    weights = np.sqrt(lams) * prefactor
    return TruncatedSource(weights=weights, discarded_mass=1.0 - kept, norm_prefactor=prefactor)


def frequency_grid(spec: BiphotonSpec, nodes: np.ndarray) -> np.ndarray:
    """Map Gauss-Hermite nodes x to frequencies omega = omega_p/2 + x / sqrt(b).

    On this grid the discrete mode vectors built by `discrete_modes` are
    orthonormal at quadrature precision.
    """
    return spec.center + nodes / math.sqrt(spec.gaussian_scale)


def discrete_modes(nodes: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Discrete orthonormal temporal-mode vectors on a Gauss-Hermite grid.

    Returns an array psi of shape (count, len(nodes)) with
    psi[n, i] = sqrt(w_i) e^{x_i^2 / 2} phi_n(x_i), so that
    sum_i psi[m, i] psi[n, i] = delta_mn at quadrature precision and
    integrals int f_m f_n g domega become psi_m (g psi_n) sums.  The vectors
    depend only on the rule (not on the source bandwidths, which enter
    through `frequency_grid`); all orders come from one Hermite recurrence.
    """
    return hermite_functions(count, nodes) * (np.sqrt(weights) * np.exp(0.5 * nodes * nodes))
