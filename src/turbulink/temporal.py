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
  FULL_IPE  carry each |omega1><omega2| coherence over sector 0 of a
            truncated LG basis and read off the fundamental-fundamental
            element; kept as a validation path.  The fundamental is even
            under the reflection l -> -l, which the generator keeps, so only
            the even half, the (cutoff + 1)^3 entries of the l-blocks
            l <= 0, is carried.  With d the diagonal phases of the coupling
            (`lgmodes.pair_coupling_assembler`), y = d x obeys
            y' = rate G(z) y + i Phi'(z) y: G the real two-carrier block,
            Phi' = N_m z_R1 / (z_R1^2 + z^2) - N_n z_R2 / (z_R2^2 + z^2) the
            carriers' Gouy rates.  Every frequency pair of the grid advances
            in one batched state by Lawson's exponential RK4 steps around
            A0, the block at one wavelength: in A0's eigenbasis rate A0 is
            exact through e^(values int rate), and only rate (G - A0) +
            i Phi', a few percent of it, is stepped, so any step count is
            stable.  The z-dependent scalars are tabulated once on the nodes
            of `ipe.rk4_nodes`, the blocks built for a chunk of successive
            nodes per call.  At omega1 = omega2, G = A0 and the steps are
            those of `ipe.propagate`.  The element is complex: its phase is
            the carriers' dispersion, and `channel_kernel` keeps the real
            part while that phase stays a perturbation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .ipe import SolverConfig, half_step_integrals, rk4_nodes
from .lgmodes import COUPLING_PREFACTOR, DECAY_CONSTANT, pair_coupling_assembler, sector_orders
from .schmidt import BiphotonSpec, discrete_modes, frequency_grid
from .turbulence import LinkGeometry, TurbulenceProfile, _check_index, extinction_depth, integrated_l, l_cross
from .turbulence import normalized_distance, pair_constants, two_pi_c_over

MAX_GRID_ORDER = 64
TRANSFER_CACHE = 8  # source grids (spec, order) whose constants and Chebyshev transfer are kept
MAX_FULL_IPE_GRID = 12
# Run cost bounds the cutoff: a grid-12 kernel (78 frequency pairs in one
# batched Lawson run on sector 0's even half, 128 steps over 30 km) takes
# 7.1 s at cutoff 4 and 20.7 s at cutoff 5 on one core of a 2-vCPU x86 VM,
# at 103 MB and 219 MB peak RSS.
MAX_FULL_IPE_CUTOFF = 5
# the full-IPE kernel builds the coupling blocks of as many successive nodes
# as hold this many entries (at least one node) in one call, so that a small
# kernel pays the assembly's per-call cost once per chunk; on a core with
# 2 MB of L2 this size was fastest at cutoffs 1-3, and 4x larger chunks as
# slow as one node each (their buffers outgrow the cache)
FULL_IPE_BLOCK_ENTRIES = 2**16


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


def _cross_frequency_full_ipe(omega1, omega2, profile, geom, cutoff: int, steps: int) -> np.ndarray:
    """Complex fundamental-to-fundamental element of the |omega1><omega2|
    coherence of every frequency pair (omega1[i], omega2[i]), all advanced
    together on the reflection-even half of sector 0 of the truncated LG
    basis by Lawson RK4 steps around A0 (see the module docstring)."""
    side, h = cutoff + 1, geom.path_length / steps
    z, cn2 = rk4_nodes(profile, geom, steps)
    # per node (rows) and pair (columns), the two carriers on a leading axis
    rate = COUPLING_PREFACTOR * l_cross(z[:, None], omega1, omega2, cn2[:, None], geom.waist)
    first, second = half_step_integrals(rate, h)
    per_range = normalized_distance(1.0, two_pi_c_over(np.stack([omega1, omega2])), geom.waist)[:, None, :]
    area = 1.0 + (z[:, None] * per_range) ** 2  # a_i / w0^2
    ratio, gouy = area / (0.5 * (area[0] + area[1])), per_range / area  # gouy: z_R / (z_R^2 + z^2)
    # the fundamental is reflection-even, and so is every derivative of an
    # even state, so only the l <= 0 blocks are carried; the blocks of
    # `chunk` successive nodes are built in one call, on tables padded with
    # the last node to whole chunks
    pairs, size = len(omega1), side**3
    chunk = max(1, min(len(z), FULL_IPE_BLOCK_ENTRIES // (pairs * size * size)))
    ratio, gouy, rate = (np.concatenate([x, x[..., -1:, :].repeat(-len(z) % chunk, axis=-2)], axis=-2)
                         for x in (ratio, gouy, rate))
    assemble = pair_coupling_assembler(cutoff, chunk * pairs, 0, even=True)
    n_row, n_col = (n[:size] for n in sector_orders(cutoff, 0))
    # A0, the block at one wavelength, acts on the l <= 0 blocks with each
    # mirror column block added: D A0 D^-1 is symmetric for D = sqrt 2 on
    # the l < 0 blocks and 1 on l = 0, so A0 = V diag(values) V^-1 with
    # V = D^-1 U and V^-1 = U^T D
    a0 = pair_coupling_assembler(cutoff, 1, 0, even=True)(np.ones((2, 1)))[0]
    scale = np.where(np.arange(size) < cutoff * side * side, math.sqrt(2.0), 1.0)
    values, vectors = np.linalg.eigh(scale[:, None] * a0 / scale)
    forward, backward = (vectors / scale[:, None]).T.copy(), scale[:, None] * vectors  # V^T, V^-T

    # each step reads its nodes in order, and its midpoint twice, so a
    # one-entry memo builds every chunk once
    @lru_cache(maxsize=1)
    def generator(start):
        nodes = slice(start, start + chunk)
        real = assemble(ratio[:, nodes].reshape(2, -1)).reshape(chunk, pairs, size, size)
        spin = gouy[0, nodes, :, None] * n_row - gouy[1, nodes, :, None] * n_col  # Phi'
        return real.transpose(0, 1, 3, 2), np.stack([-spin, spin], axis=2)

    def stage(k, u):
        """V^-1 [rate (G - A0) + i Phi'] V u at node k, u each pair's
        eigencoordinates as two real rows (Re, Im)."""
        coupling, spin = generator(k - k % chunk)
        pair_rate = rate[k, :, None, None]
        y = (u.reshape(-1, size) @ forward).reshape(u.shape)
        w = np.matmul(y, coupling[k % chunk])
        w *= pair_rate
        w += y[:, ::-1] * spin[k % chunk]  # i Phi' (a + ib) = -Phi' b + i Phi' a
        w = (w.reshape(-1, size) @ backward).reshape(u.shape)
        w -= pair_rate * values * u
        return w

    # d and D are 1 on the fundamental (N = 0, l = 0): u starts as V^-1 e_f,
    # row f of U, and the element is (V u)_f = U[f] . u
    fundamental = cutoff * side * side  # r = 0 of the l = 0 block
    u = np.zeros((pairs, 2, size))
    u[:, 0] = vectors[fundamental]
    for s in range(steps):
        ea, eb = (np.exp(np.multiply.outer(x[s], values))[:, None] for x in (first, second))
        whole, node = ea * eb, 2 * s
        k1 = stage(node, u)
        k2 = stage(node + 1, ea * (u + 0.5 * h * k1))
        k3 = stage(node + 1, ea * u + 0.5 * h * k2)
        u = whole * u
        k4 = stage(node + 2, u + h * eb * k3)
        u += (h / 6.0) * (whole * k1 + 2.0 * eb * (k2 + k3) + k4)
    element = u @ vectors[fundamental]
    return element[:, 0] + 1j * element[:, 1]


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
    if not isinstance(fidelity, KernelFidelity):
        raise ValueError(f"fidelity must be a KernelFidelity member, not {fidelity!r}")
    if grid_order > MAX_GRID_ORDER:
        raise CostGuardError(f"grid order {grid_order} exceeds {MAX_GRID_ORDER}")
    if fidelity is KernelFidelity.FULL_IPE:
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
        values = _cross_frequency_full_ipe(grid.omegas[grid.rows], grid.omegas[grid.cols], profile, geom, cutoff, steps)
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
