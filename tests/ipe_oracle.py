"""An earlier form of `ipe._lawson_loop`, kept as the reference that the
current one must match bit for bit: the Lawson RK4 loop written one numpy
expression per stage, a fresh array for each."""
from __future__ import annotations

import numpy as np


def lawson_loop(rotation: np.ndarray, u: np.ndarray, factors: tuple) -> np.ndarray:
    """`ipe._lawson_loop` on the coefficients of `ipe._lawson_factors`: per
    step, with p = rotation u, k2 = rotation (a u + b p),
    k3 = rotation (a u + half k2), k4 = rotation (c u + d k3) and
    u <- e u + f p + j (k2 + k3) + k4."""
    coefficients, halves = factors
    for (a, b, e, f, d, c, j), half in zip(coefficients, halves):
        p, au = rotation @ u, a * u
        k2 = rotation @ (au + b * p)
        k3 = rotation @ (au + half * k2)
        k4 = rotation @ (c * u + d * k3)
        u = e * u + f * p + j * (k2 + k3) + k4
    return u

