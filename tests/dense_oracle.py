"""Dense masked coupling sum over a whole basis.

An oracle for the Delta-l sector blocks of `lgmodes.pair_tensor`: the
Gamma-weighted double sum over every (m, u) and (n, v) pair of a coefficient
stack as one (S^2, S^2) product, zeroed where the azimuthal rule
l_m - l_u = l_n - l_v fails.  It shares only the coefficients and the Gamma
weights with the library, never the sector layout.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from turbulink.lgmodes import ModeBasis, coefficient_stack, gamma_weight_matrix


def selection_mask(basis: ModeBasis) -> np.ndarray:
    """Boolean mask sel[m, u, n, v] of the azimuthal rule l_m - l_u = l_n - l_v."""
    ls = np.array([idx.l for idx in basis.indices])
    diff = ls[:, None] - ls[None, :]
    return diff[:, :, None, None] == diff[None, None, :, :]


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
