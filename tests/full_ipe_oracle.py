"""An earlier form of `temporal._cross_frequency_full_ipe`, kept as the
reference for the kernel: every frequency pair stepped by classical RK4 in
the lab frame on the whole of sector 0, all (2 cutoff + 1)(cutoff + 1)^2
entries, odd half included, with the whole-sector real block of
`lgmodes.pair_coupling_blocks` between its diagonal phases, which this
module forms itself.  The kernel takes Lawson steps around the
single-wavelength block on the reflection-even half instead, so the two
share only the coupling assembly and the node layout of `ipe.rk4_nodes`."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from turbulink.ipe import rk4_nodes
from turbulink.lgmodes import COUPLING_PREFACTOR, pair_coupling_blocks, sector_orders
from turbulink.turbulence import l_cross, normalized_distance, two_pi_c_over


def whole_sector_fundamental(omega1, omega2, profile, geom, cutoff: int, steps: int) -> np.ndarray:
    """The complex fundamental-to-fundamental element of the |omega1><omega2|
    coherence of every frequency pair (omega1[i], omega2[i]) after the
    whole-sector run, before the kernel's imaginary-part guard."""
    side, count = cutoff + 1, 2 * cutoff + 1
    z, cn2 = rk4_nodes(profile, geom, steps)
    rate = COUPLING_PREFACTOR * l_cross(z[:, None], omega1, omega2, cn2[:, None], geom.waist)
    t = normalized_distance(z[:, None], two_pi_c_over(np.stack([omega1, omega2]))[:, None, :], geom.waist)
    area = 1.0 + t * t
    ratio, phase = area / (0.5 * (area[0] + area[1])), np.arctan(t) + 0.5 * math.pi
    n_row, n_col = sector_orders(cutoff, 0)

    @lru_cache(maxsize=1)
    def generator(k):
        # the real block and its diagonal phases e^{i(phi1 N_m - phi2 N_n)}
        diagonal = np.exp(1j * (phase[0, k][:, None] * n_row - phase[1, k][:, None] * n_col))
        return pair_coupling_blocks(cutoff, 0, ratio[:, k]), diagonal

    def derivative(k, state):
        real, diagonal = generator(k)
        dressed = diagonal * state
        product = (real @ dressed.view(np.float64).reshape(dressed.shape + (2,))).view(complex)
        return rate[k][:, None] * np.conj(diagonal) * product[..., 0]

    state = np.zeros((len(omega1), count * side * side), dtype=complex)
    fundamental = cutoff * side * side
    state[:, fundamental] = 1.0
    h = geom.path_length / steps
    for node in range(0, 2 * steps, 2):
        k1 = derivative(node, state)
        k2 = derivative(node + 1, state + 0.5 * h * k1)
        k3 = derivative(node + 1, state + 0.5 * h * k2)
        k4 = derivative(node + 2, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state[:, fundamental]
