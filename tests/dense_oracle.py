"""Dense masked coupling sum over a whole basis, and the complex sector derivative.

An oracle for the Delta-l sector blocks of `lgmodes.pair_coupling_blocks`,
at one wavelength and between two carriers: the radial integral over every
(m, u) and (n, v) pair on the nodes y_k of `lgmodes.radial_rule`,

    T = Gamma(-5/6) e e^T + sum_k w_k (W1[k] conj(W2[k])^T - e e^T) / y_k,

as one (S^2, S^2) product of two complex stacks of correlations W_mu (each
the two one-axis elements of `lgmodes._axis_values` with their quarter
turns and sign, as `quadrature_oracle.c_coefficients` takes them, times
the pair's Gouy phase), zeroed where the azimuthal rule l_m - l_u = l_n - l_v fails; e is
the Kronecker delta of (m, u), split off the same way as in the library.
It shares only the node rule and the axis values with the library, never
the sector layout or the real-up-to-phases factorization; the accuracy of
the sum itself is checked against `exact_oracle`.

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

from turbulink.lgmodes import COUPLING_PREFACTOR, ModeBasis, radial_rule, sector_blocks
from turbulink.lgmodes import _axis_values
from turbulink.turbulence import l_cross, two_pi_c_over


def selection_mask(basis: ModeBasis) -> np.ndarray:
    """Boolean mask sel[m, u, n, v] of the azimuthal rule l_m - l_u = l_n - l_v."""
    ls = np.array([idx.l for idx in basis.indices])
    diff = ls[:, None] - ls[None, :]
    return diff[:, :, None, None] == diff[None, None, :, :]


def node_stack(basis: ModeBasis, t: float, ratio: float = 1.0) -> np.ndarray:
    """W_mu - e_mu of every basis pair on the nodes, [k, m, u], at normalized
    distance t and x = ratio y_k / 2: W_mu is the t = 0 product of two
    one-axis elements i^{|a-b|} F(a, b) times (-1)^(r_m + r_u), times the
    Gouy phase b^{g_m - g_u}, b = (1 + it)/(1 - it).  For m = u, W_mm =
    L_p L_q (p, q the quanta of m), and W_mm - 1 is formed from L_n - 1 =
    -x sum_{k < n} L_k^(1)(x) / (k + 1), which does not cancel at small x."""
    cutoff, top = basis.cutoff, 2 * basis.cutoff
    x = 0.5 * ratio * radial_rule(max(1, 3 * cutoff))[0]
    flat = _axis_values(x, top)  # [b (top + 1) + (a - b), k]
    values = flat.reshape(top + 1, top + 1, -1)
    slope = flat[1 : top * (top + 1) : top + 1]  # F(k + 1, k) = x^(1/2) L_k^(1) / sqrt(k + 1)
    slope = -np.sqrt(x) * slope / np.sqrt(np.arange(1.0, top + 1))[:, None]
    less = np.concatenate([np.zeros((1, len(x))), np.cumsum(slope, axis=0)])  # L_n - 1
    r = np.array([idx.r for idx in basis.indices])
    plus = np.array([idx.r + max(idx.l, 0) for idx in basis.indices])
    minus = np.array([idx.r + max(-idx.l, 0) for idx in basis.indices])
    gouy = np.array([idx.gouy_weight for idx in basis.indices])
    turns = np.abs(plus[:, None] - plus) + np.abs(minus[:, None] - minus)
    unit = 1j**turns * (-1.0) ** (r[:, None] + r) * np.exp(2j * math.atan(t) * (gouy[:, None] - gouy))
    plus_pair, minus_pair = ((np.minimum.outer(n, n), np.abs(np.subtract.outer(n, n))) for n in (plus, minus))
    stack = unit * np.moveaxis(values[plus_pair] * values[minus_pair], -1, 0)
    diagonal = np.arange(basis.size)
    stack[:, diagonal, diagonal] = (less[plus] * less[minus] + less[plus] + less[minus]).T
    return stack


def node_sum(left: np.ndarray, right: np.ndarray, cutoff: int) -> np.ndarray:
    """T[(m, u), (n, v)] from two stacks of W - e [k, m, u], the second
    conjugated: D1^T conj(D2) + e conj(h2)^T + h1 e^T + Gamma(-5/6) e e^T
    with D_i = diag(sqrt(w / y)) (W_i - e) and h_i = D_i^T sqrt(w / y)."""
    nodes, weights = radial_rule(max(1, 3 * cutoff))
    root = np.sqrt(weights / nodes)
    e = np.eye(left.shape[-1]).reshape(-1)
    d1, d2 = (stack.reshape(len(nodes), -1) * root[:, None] for stack in (left, right))
    h1, h2 = root @ d1, root @ d2
    return d1.T @ np.conj(d2) + np.outer(e, np.conj(h2)) + np.outer(h1, e) + math.gamma(-5.0 / 6.0) * np.outer(e, e)


@lru_cache(maxsize=None)
def dense_pair_tensor(cutoff: int) -> np.ndarray:
    """T[m, u, n, v] at t = 0 on one wavelength, masked; read-only."""
    basis = ModeBasis(cutoff)
    size = basis.size
    stack = node_stack(basis, 0.0)
    tensor = node_sum(stack, stack, cutoff).reshape(size, size, size, size) * selection_mask(basis)
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
    left, right = (node_stack(basis, t, a / (0.5 * (a1 + a2))) for t, a in ((t1, a1), (t2, a2)))
    tensor = node_sum(left, right, basis.cutoff).reshape(size, size, size, size) * selection_mask(basis)  # [m, u, n, v]
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
