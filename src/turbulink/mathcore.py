"""Special functions and quadrature rules: orthonormal Hermite functions
and Gauss-Hermite rules.

Everything here is a pure function of its inputs.  Quadrature rules are
cached per order and their arrays are enforced read-only (writing raises
ValueError), so one rule is safely shared between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

MAX_HERMITE_ORDER = 64
MIN_QUADRATURE_ORDER = 2
MAX_QUADRATURE_ORDER = 128


class UnsupportedOrderError(ValueError):
    """Polynomial or quadrature order outside the supported range."""


def hermite_functions(count: int, x) -> np.ndarray:
    """Orthonormal Hermite functions phi_0..phi_{count-1} at x, one row per
    order: phi_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}.

    One pass of the normalized recurrence phi_{k+1} = x sqrt(2/(k+1)) phi_k
    - sqrt(k/(k+1)) phi_{k-1}, which avoids the factorial overflow of the
    raw polynomial for large n.  Accepts scalars or numpy arrays.
    """
    if not 1 <= count <= MAX_HERMITE_ORDER + 1:
        raise UnsupportedOrderError(f"order {count - 1} outside [0, {MAX_HERMITE_ORDER}]")
    x = np.asarray(x, dtype=float)
    phi = np.empty((count,) + x.shape)
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for k in range(1, count - 1):
        phi[k + 1] = x * np.sqrt(2.0 / (k + 1)) * phi[k] - np.sqrt(k / (k + 1)) * phi[k - 1]
    return phi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for a fixed quadrature rule (weight e^{-x^2})."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


@lru_cache(maxsize=None)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order for weight e^{-x^2}, built once
    per order with read-only arrays.

    Exact for polynomials of degree <= 2*order - 1; nodes are symmetric
    about zero.
    """
    if order < MIN_QUADRATURE_ORDER or order > MAX_QUADRATURE_ORDER:
        raise UnsupportedOrderError(
            f"quadrature order {order} outside "
            f"[{MIN_QUADRATURE_ORDER}, {MAX_QUADRATURE_ORDER}]"
        )
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)
