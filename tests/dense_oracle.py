"""Dense masked coupling sum over a whole basis, and the complex sector derivative.

An oracle for the Delta-l sector blocks of `lgmodes.pair_coupling_assembler`,
at one wavelength and between two carriers: the Gamma-weighted double sum
over every (m, u) and (n, v) pair of two complex coefficient stacks (each
the t = 0 `c_coefficients` of every pair, built once per basis, times the
pair's Gouy phase) as one (S^2, S^2) product, zeroed where the azimuthal
rule l_m - l_u = l_n - l_v fails.  It shares only the coefficients and the
Gamma weights with the library, never the sector layout or the
real-up-to-phases factorization.

`complex_sector_derivative` is the rotating-frame derivative of one sector
written on its complex l-blocks (gain matvec, Lindblad Q rho + rho Q^dagger
with the constant Q = Gamma0^T, Gouy commutator): an oracle for the
real-coordinate pair (A, C) that `ipe.generator_parts` builds per scheme,
read through the eigenbasis that `ipe.sector_spectrum` caches.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from turbulink.lgmodes import (
    COUPLING_PREFACTOR,
    ModeBasis,
    c_coefficients,
    gamma_weight_matrix,
    sector_blocks,
)
from turbulink.turbulence import l_cross, two_pi_c_over


def selection_mask(basis: ModeBasis) -> np.ndarray:
    """Boolean mask sel[m, u, n, v] of the azimuthal rule l_m - l_u = l_n - l_v."""
    ls = np.array([idx.l for idx in basis.indices])
    diff = ls[:, None] - ls[None, :]
    return diff[:, :, None, None] == diff[None, None, :, :]


@lru_cache(maxsize=None)
def _stack_at_waist(basis: ModeBasis) -> tuple:
    """(c_{m,u,j}(0) of every basis pair as a (6 cutoff + 1, size, size)
    array, zero past each pair's last coefficient; the Gouy weights g_m)."""
    stack = np.zeros((6 * basis.cutoff + 1, basis.size, basis.size), dtype=complex)
    for a, m in enumerate(basis.indices):
        for b, u in enumerate(basis.indices):
            values = c_coefficients(m, u, 0.0)
            stack[: len(values), a, b] = values
    stack.setflags(write=False)
    return stack, np.array([idx.gouy_weight for idx in basis.indices])


def coefficient_stack(basis: ModeBasis, t: float) -> np.ndarray:
    """c_{m,u,j}(t) of every basis pair as a (6 cutoff + 1, size, size) array,
    zero past each pair's last coefficient: the t = 0 stack times the Gouy
    phase b^{g_m - g_u}, b = (1 + it)/(1 - it), as `c_coefficients` takes it."""
    stack, gouy = _stack_at_waist(basis)
    return stack * np.exp(2j * math.atan(t) * (gouy[:, None] - gouy[None, :]))


@lru_cache(maxsize=None)
def dense_pair_tensor(cutoff: int) -> np.ndarray:
    """T[m, u, n, v] = sum_{j1 j2} c[j1, m, u] M[j1, j2] conj(c[j2, n, v]) at
    t = 0, masked; read-only."""
    basis = ModeBasis(cutoff)
    size = basis.size
    stack = coefficient_stack(basis, 0.0).reshape(-1, size * size)
    pairs = stack.T @ gamma_weight_matrix(stack.shape[0]) @ np.conj(stack)
    tensor = pairs.reshape(size, size, size, size) * selection_mask(basis)
    tensor.setflags(write=False)
    return tensor


def dense_sector(tensor: np.ndarray, cutoff: int, delta: int) -> np.ndarray:
    """Sector delta's block [(q, r_u, r_v), (p, r_m, r_n)] sliced from a
    masked sum tensor[m, u, n, v] (l_m, l_u in row l-blocks lo_row + p, lo_row + q;
    l_n, l_v in column l-blocks lo_col + p, lo_col + q; see `sector_blocks`)."""
    side = cutoff + 1
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    tensor = tensor.reshape((2 * cutoff + 1, side) * 4)
    row, col = np.arange(lo_row, lo_row + count), np.arange(lo_col, lo_col + count)
    p, q = np.arange(count)[:, None], np.arange(count)[None, :]
    # [p, q, r_m, r_u, r_n, r_v] -> [q, r_u, r_v, p, r_m, r_n]
    block = tensor[row[p], :, row[q], :, col[p], :, col[q], :].transpose(1, 3, 5, 0, 2, 4)
    return block.reshape(count * side * side, count * side * side)


def dense_pair_coupling(basis: ModeBasis, z: float, cn2: float, w0: float, pair) -> np.ndarray:
    """entries[m, n, u, v] of the coupling between the carriers of an
    angular-frequency pair (rad/s) at z (total-rate part excluded): each
    carrier's coefficients take its own Gouy phase (t_i = z / z_R,i) and are
    rescaled from its beam area a_i = (1 + t_i^2) w0^2 to the mean of the
    two, and l(z) is the two-frequency decay density."""
    size = basis.size
    t1, t2 = (z / (math.pi * w0**2 / two_pi_c_over(omega)) for omega in pair)
    a1, a2 = (1.0 + t1 * t1) * w0**2, (1.0 + t2 * t2) * w0**2
    left, right = coefficient_stack(basis, t1), np.conj(coefficient_stack(basis, t2))
    js = np.arange(left.shape[0])[:, None, None]
    left *= (a1 / (0.5 * (a1 + a2))) ** (0.5 * js)
    right *= (a2 / (0.5 * (a1 + a2))) ** (0.5 * js)
    sums = left.reshape(-1, size * size).T @ gamma_weight_matrix(len(js)) @ right.reshape(-1, size * size)
    tensor = sums.reshape(size, size, size, size) * selection_mask(basis)  # [m, u, n, v]
    rate = COUPLING_PREFACTOR * l_cross(z, pair[0], pair[1], cn2, w0)
    return rate * tensor.transpose(0, 2, 1, 3)


@lru_cache(maxsize=None)
def dense_generator(cutoff: int) -> tuple:
    """(gain0, gamma0): the t = 0 gain as the (S^2, S^2) map [(u, v), (m, n)]
    on the row-major vectorized density, and the basis-summed rate matrix
    Gamma0[u, v] = sum_n T[n, u, n, v]; read-only."""
    tensor = dense_pair_tensor(cutoff)
    size = tensor.shape[0]
    gain0 = np.transpose(tensor, (1, 3, 0, 2)).reshape(size * size, size * size)
    gamma0 = np.einsum("nanb->ab", tensor)
    for array in (gain0, gamma0):
        array.setflags(write=False)
    return gain0, gamma0


def complex_sector_derivative(cutoff: int, delta: int, lindblad: bool, rates, gouy_rates):
    """d rho / dz at node k on sector delta's (count, c+1, c+1) stack of complex
    l-blocks: rate (R0 rho - [Q rho + rho Q^dagger] / 2) plus the Gouy
    commutator, the bracket only when `lindblad`; R0 is the sector's slice of
    `dense_pair_tensor`, Q = Gamma0^T (in the rotating frame the loss carries the
    gain's outflow phases, which cancel), and rates and gouy_rates are given
    per node."""
    basis, side, blocks = ModeBasis(cutoff), cutoff + 1, 2 * cutoff + 1
    gain = dense_sector(dense_pair_tensor(cutoff), cutoff, delta)
    q = dense_generator(cutoff)[1].T.reshape(blocks, side, blocks, side)
    q = q[np.arange(blocks), :, np.arange(blocks), :]  # its l-blocks
    gouy = np.array([idx.gouy_weight for idx in basis.indices]).reshape(blocks, side)
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    rows, cols = slice(lo_row, lo_row + count), slice(lo_col, lo_col + count)
    gouy_comm = 2j * (gouy[rows, :, None] - gouy[cols, None, :])

    def derivative(k, rho):
        out = rates[k] * (gain @ rho.reshape(-1)).reshape(rho.shape)
        if lindblad:
            out -= 0.5 * rates[k] * (q[rows] @ rho + rho @ q[cols].conj().transpose(0, 2, 1))
        return out + (gouy_rates[k] * gouy_comm) * rho

    return derivative
