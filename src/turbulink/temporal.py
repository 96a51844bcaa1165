"""Two-frequency decay kernel and the temporal-mode transmission matrix.

The channel damps each frequency-basis element |omega1><omega2| of the
lowest spatial mode by a factor P(omega1, omega2).  Sampling P on the
Gauss-Hermite grid matched to the source bandwidth (`schmidt.frequency_grid`)
turns every temporal-mode quantity into a small quadratic form in the mode
vectors of `schmidt.discrete_modes`: mode traces, the transmission matrix
S_{n,m}, and the per-mode output densities.

One cached, read-only grid object per (spec, order) holds the per-grid
constants: the frequencies, the rows and columns of the upper triangle
(the kernel is exactly symmetric: only those entries are computed), each
entry's position in it (the full matrix is one `take`) and the triangle's
`turbulence.pair_constants`.

Two kernel fidelities:
  ANALYTIC  pure decay, P = exp(-54.1 * int l(omega1, omega2, z) dz); this is
            the regime in which the reference transmission matrix lives.
  FULL_IPE  the real part of `ipe.cross_frequency_elements`: each
            |omega1><omega2| coherence carried over sector 0 of a truncated
            LG basis and read off at the fundamental; kept as a validation
            path, while the carriers' dispersive phase stays a perturbation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .schmidt import BiphotonSpec, discrete_modes, frequency_grid
from .turbulence import DECAY_CONSTANT, LinkGeometry, TurbulenceProfile, _check_index, _check_member
from .turbulence import extinction_depth, integrated_l, pair_constants

MAX_GRID_ORDER = 64
TRANSFER_CACHE = 8  # source grids (spec, order) whose constants and Chebyshev transfer are kept
MAX_FULL_IPE_GRID = 12
# Run cost bounds the cutoff: a grid-12 kernel (78 frequency pairs in one
# batched Lawson run on sector 0's even half, 128 steps over 30 km) takes
# 1.2 s at cutoff 4 and 4.6 s at cutoff 5 on one core of a 2-vCPU x86 VM,
# at 61 MB and 144 MB peak RSS.
MAX_FULL_IPE_CUTOFF = 5


class KernelFidelity(Enum):
    ANALYTIC = "analytic"
    FULL_IPE = "full_ipe"


class CostGuardError(ValueError):
    """Requested kernel evaluation beyond the configured cost guards."""


class ResolutionError(ValueError):
    """Mode order not resolvable on the current frequency grid."""


@dataclass(frozen=True)
class ChannelKernel:
    """Decay surface P(omega_i, omega_j) on the Gauss-Hermite frequency grid
    of order len(omegas) (read-only, shared by every kernel on the grid)."""

    omegas: np.ndarray
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return len(self.omegas)

    @cached_property
    def traces(self) -> np.ndarray:
        """T_n = sum_i psi_n(i)^2 P(omega_i, omega_i) of every resolvable
        mode, read-only, computed once."""
        psi = discrete_modes(self.order)
        traces = (psi * psi * self.matrix.diagonal()).sum(axis=-1)
        traces.flags.writeable = False
        return traces

    def mode_vectors(self, count: int) -> np.ndarray:
        """The first `count` discrete orthonormal temporal-mode vectors on the
        kernel grid: a read-only view of `schmidt.discrete_modes(order)`."""
        _check_index("count", count)
        self._check_resolvable(count)
        return discrete_modes(self.order)[:count]

    def _check_resolvable(self, count: int):
        if count > self.order // 2:
            raise ResolutionError(
                f"mode order {count - 1} not resolvable on a grid of {self.order} nodes"
            )


class _Grid(NamedTuple):
    """The read-only constants of one source grid: the frequencies, the rows
    and cols of the upper triangle, the mirror index (mirror[i, j] is (i, j)'s
    position in the triangle) and the triangle's `turbulence.pair_constants`."""

    omegas: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mirror: np.ndarray
    pairs: tuple


@lru_cache(maxsize=TRANSFER_CACHE)
def _source_grid(spec: BiphotonSpec, order: int) -> _Grid:
    """The grid object of the module docstring, built once per (spec, order)."""
    omegas = frequency_grid(spec, order)
    rows, cols = np.triu_indices(order)
    mirror = np.empty((order, order), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    for array in (omegas, rows, cols, mirror):
        array.flags.writeable = False
    return _Grid(omegas, rows, cols, mirror, pair_constants(omegas[rows], omegas[cols]))


def channel_kernel(
    spec: BiphotonSpec,
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    grid_order: int = 32,
    fidelity: KernelFidelity = KernelFidelity.ANALYTIC,
    cutoff: int = 2,
    extinction_per_km: float = 0.0,
    steps: int = 128,
) -> ChannelKernel:
    """Sample the two-frequency survival probability on the source grid."""
    _check_index("grid_order", grid_order)
    _check_member("fidelity", fidelity, KernelFidelity)
    if grid_order > MAX_GRID_ORDER:
        raise CostGuardError(f"grid order {grid_order} exceeds {MAX_GRID_ORDER}")
    if fidelity is KernelFidelity.FULL_IPE:
        from .ipe import SolverConfig, cross_frequency_elements

        SolverConfig(cutoff=cutoff, steps=steps)  # refuses the step counts `propagate` refuses
        if grid_order > MAX_FULL_IPE_GRID or cutoff > MAX_FULL_IPE_CUTOFF:
            raise CostGuardError(
                f"full propagation kernels are limited to grid order {MAX_FULL_IPE_GRID}"
                f" and cutoff {MAX_FULL_IPE_CUTOFF}"
            )
    grid = _source_grid(spec, grid_order)
    extinction = math.exp(-extinction_depth(extinction_per_km, geom.path_length))
    if profile.is_zero:
        return ChannelKernel(omegas=grid.omegas, matrix=np.full((grid_order, grid_order), extinction))
    if fidelity is KernelFidelity.ANALYTIC:
        values = np.exp(-(DECAY_CONSTANT * integrated_l(profile, geom, grid.pairs)))
    else:
        values = cross_frequency_elements(grid.omegas[grid.rows], grid.omegas[grid.cols], profile, geom, cutoff, steps)
        # the real part, while the carriers' dispersive phase stays a perturbation
        too_large = ~(np.abs(values.imag) <= 0.05 * np.maximum(np.abs(values.real), 1e-12))  # NaN too
        if np.any(too_large):
            raise RuntimeError(f"cross-frequency population has imaginary part {values.imag[too_large][0]:.2e}")
        values = values.real
    matrix = values.take(grid.mirror)  # the upper triangle, mirrored
    matrix *= extinction
    return ChannelKernel(omegas=grid.omegas, matrix=matrix)


def mode_trace(kernel: ChannelKernel, spec: BiphotonSpec, n: int) -> float:
    """Survival probability T_n of the n-th temporal mode (diagonal average)."""
    _check_index("n", n)
    kernel._check_resolvable(n + 1)
    return float(kernel.traces[n])


@dataclass(frozen=True)
class TransmissionMatrix:
    """Normalized mode-to-mode transition probabilities S[n, m] with traces."""

    matrix: np.ndarray
    traces: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def transmission_matrix(kernel: ChannelKernel, spec: BiphotonSpec, max_mode: int) -> TransmissionMatrix:
    """S[n, m]: probability of receiving temporal mode m when n was sent.

    Rows are normalized by the mode traces T_n, so each full row over all
    modes sums to one; the returned block stops at max_mode.  T_n S[n, m] =
    o.Po with o = psi_n * psi_m: one GEMM of the stacked o with P, a row dot.
    """
    _check_index("max_mode", max_mode)
    psi = kernel.mode_vectors(max_mode + 1)
    traces = kernel.traces[: max_mode + 1]
    if not (traces > 0.0).all():
        raise RuntimeError(f"temporal mode {np.argmin(traces)} is fully absorbed (trace 0)")
    overlap = (psi[:, None, :] * psi[None, :, :]).reshape(-1, kernel.order)  # ((n, m), grid)
    s = np.einsum("ki,ki->k", overlap @ kernel.matrix, overlap).reshape(len(psi), len(psi))
    return TransmissionMatrix(matrix=s / traces[:, None], traces=traces)
