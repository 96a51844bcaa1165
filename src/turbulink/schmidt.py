"""Double-Gaussian biphoton source: Schmidt spectrum and temporal modes.

The joint spectral amplitude is a product of two Gaussians, one in the sum
frequency (pump coherence, bandwidth sigma_a) and one in the difference
frequency (phase matching, bandwidth sigma_b).  Its Schmidt decomposition is
analytic: geometric eigenvalues and Hermite-Gaussian frequency modes centred
on half the pump frequency.  This module is the one home of their grid:
the Gauss-Hermite rule of each order, its frequencies and its mode vectors,
cached per order with read-only arrays (writing raises ValueError), so one
grid is safely shared between threads.

All spectral quantities are angular frequencies in rad/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .turbulence import _check_index, _positive_finite

MAX_HERMITE_ORDER = 64
MIN_QUADRATURE_ORDER = 2
MAX_QUADRATURE_ORDER = 128
MAX_EIGENVALUE_INDEX = 200


class UnsupportedOrderError(ValueError):
    """Polynomial or quadrature order outside the supported range."""


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
        for name, value in vars(self).items():
            if not _positive_finite(value):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")

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
    _check_index("n", n, signed=True)  # an out-of-range int is an UnsupportedOrderError
    if n < 0 or n > MAX_EIGENVALUE_INDEX:
        raise UnsupportedOrderError(f"eigenvalue index n = {n} outside [0, {MAX_EIGENVALUE_INDEX}]")
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
    _check_index("max_mode", max_mode, signed=True)
    if max_mode < 0 or max_mode > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(f"max_mode {max_mode} outside [0, {MAX_HERMITE_ORDER}]")
    lams = np.array([schmidt_eigenvalue(spec, n) for n in range(max_mode + 1)])
    kept = float(lams.sum())
    prefactor = kept**-0.5
    weights = np.sqrt(lams) * prefactor
    return TruncatedSource(weights=weights, discarded_mass=1.0 - kept, norm_prefactor=prefactor)


def hermite_functions(count: int, x) -> np.ndarray:
    """Orthonormal Hermite functions phi_0..phi_{count-1} at x, one row per
    order: phi_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}.

    One pass of the normalized recurrence phi_{k+1} = x sqrt(2/(k+1)) phi_k
    - sqrt(k/(k+1)) phi_{k-1}, which avoids the factorial overflow of the
    raw polynomial for large n.  Accepts scalars or numpy arrays.
    """
    _check_index("count", count, signed=True)  # an out-of-range int is an UnsupportedOrderError
    if not 1 <= count <= MAX_HERMITE_ORDER + 1:
        raise UnsupportedOrderError(f"count {count} outside [1, {MAX_HERMITE_ORDER + 1}]")
    x = np.asarray(x, dtype=float)
    phi = np.empty((count,) + x.shape)
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for k in range(1, count - 1):
        phi[k + 1] = x * np.sqrt(2.0 / (k + 1)) * phi[k] - np.sqrt(k / (k + 1)) * phi[k - 1]
    return phi


class QuadratureRule(NamedTuple):
    """Nodes and weights of a Gauss-Hermite rule (weight e^{-x^2})."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is refused, not served order 3's rule
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order for weight e^{-x^2}, built once
    per order with read-only arrays.

    Exact for polynomials of degree <= 2*order - 1; nodes are symmetric
    about zero.
    """
    _check_index("order", order, signed=True)
    if order < MIN_QUADRATURE_ORDER or order > MAX_QUADRATURE_ORDER:
        raise UnsupportedOrderError(
            f"quadrature order {order} outside "
            f"[{MIN_QUADRATURE_ORDER}, {MAX_QUADRATURE_ORDER}]"
        )
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def frequency_grid(spec: BiphotonSpec, order: int) -> np.ndarray:
    """Gauss-Hermite nodes x of the given order as frequencies
    omega = omega_p/2 + x / sqrt(b), on which `discrete_modes(order)` are
    orthonormal at quadrature precision."""
    return spec.center + gauss_hermite_rule(order).nodes / math.sqrt(spec.gaussian_scale)


@lru_cache(maxsize=None, typed=True)  # as `gauss_hermite_rule`, which checks the order
def discrete_modes(order: int) -> np.ndarray:
    """The order // 2 temporal-mode vectors a Gauss-Hermite grid of the given
    order resolves, one read-only stack built once per order:
    psi[n, i] = sqrt(w_i) e^{x_i^2 / 2} phi_n(x_i), so that sum_i psi[m, i]
    psi[n, i] = delta_mn at quadrature precision and int f_m f_n g domega
    becomes psi_m (g psi_n).  The source bandwidths enter only through
    `frequency_grid`; all orders come from one Hermite recurrence."""
    nodes, weights = gauss_hermite_rule(order)
    stack = hermite_functions(order // 2, nodes) * (np.sqrt(weights) * np.exp(0.5 * nodes * nodes))
    stack.flags.writeable = False
    return stack
