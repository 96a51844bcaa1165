"""Two-frequency decay kernel and the temporal-mode transmission matrix.

The channel damps each frequency-basis element |omega1><omega2| of the
lowest spatial mode by a factor P(omega1, omega2).  Sampling P on the
Gauss-Hermite grid matched to the source bandwidth (`schmidt.frequency_grid`)
turns every temporal-mode quantity into a small quadratic form in the mode
vectors of `schmidt.discrete_modes`: mode traces, the transmission matrix
S_{n,m}, and the per-mode output densities.

Two kernel fidelities:
  ANALYTIC  pure decay, P = exp(-54.1 * int l(omega1, omega2, z) dz); this is
            the regime in which the reference transmission matrix lives.
  FULL_IPE  carry each |omega1><omega2| coherence over sector 0 of a
            truncated LG basis and read off the fundamental-fundamental
            element; kept as a validation path.  The fundamental is even
            under the reflection l -> -l, which the generator keeps, so only
            the even half, the (cutoff + 1)^3 entries of the l-blocks
            l <= 0, is carried.  Every frequency pair of the grid advances
            in one batched state by classical RK4 steps, with its
            z-dependent scalars tabulated once on the nodes of
            `ipe.rk4_nodes` and its coupling built on that half by
            `lgmodes.pair_coupling_assembler`, for a chunk of successive
            nodes per call; at omega1 = omega2 it is the
            single-frequency propagation of `ipe.propagate`.  A step count
            past RK4's stability limit (RK4_REAL_LIMIT) is refused before the
            first step, or C_n^2 if the count that passes exceeds MAX_STEPS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .ipe import PropagationScheme, SolverConfig, rk4_nodes, sector_spectrum
from .lgmodes import COUPLING_PREFACTOR, DECAY_CONSTANT, pair_coupling_assembler
from .schmidt import BiphotonSpec, discrete_modes, frequency_grid
from .turbulence import LinkGeometry, TurbulenceProfile, extinction_depth, integrated_l, l_cross
from .turbulence import normalized_distance, two_pi_c_over

MAX_GRID_ORDER = 64
MAX_FULL_IPE_GRID = 12
# Run cost bounds the cutoff: a grid-12 kernel (78 frequency pairs in one
# batched RK4 on sector 0's even half) takes 1.8 s at cutoff 4 and 8.9 s at
# cutoff 5 (128 steps; 4.0 s and 16.4 s at 256) on one core of a 2-vCPU x86
# VM, at 123 MB peak RSS.
MAX_FULL_IPE_CUTOFF = 5
# classical RK4 is stable on the negative real axis for h |lambda| up to 2.785
RK4_REAL_LIMIT = 2.785
# the config's `steps` maximum; the step guard names no count past it
MAX_STEPS = 100000
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
    of order len(omegas)."""

    omegas: np.ndarray
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return len(self.omegas)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """P(omega_i, omega_i): a read-only view of the matrix, taken once."""
        return self.matrix.diagonal()

    def mode_vectors(self, count: int) -> np.ndarray:
        """The first `count` discrete orthonormal temporal-mode vectors on the
        kernel grid: a read-only view of `schmidt.discrete_modes(order)`."""
        if count > self.order // 2:
            raise ResolutionError(
                f"mode order {count - 1} not resolvable on a grid of {self.order} nodes"
            )
        return discrete_modes(self.order)[:count]


def _check_step_count(rate, profile: TurbulenceProfile, geom: LinkGeometry, cutoff: int, steps: int) -> None:
    """Refuse a step count whose h * max rate * rho(A0) on the run's own table
    `rate` exceeds RK4_REAL_LIMIT, A0 the single-wavelength sector-0 operator
    (`ipe.sector_spectrum`): RK4 would overflow into NaN.  Each node's block
    differs from A0 by a few percent, so the figure and its count are estimates."""
    radius = np.max(np.abs(sector_spectrum(cutoff, 0, PropagationScheme.TRUNCATED_EXACT)[0]))
    figure = geom.path_length / steps * float(rate.max()) * radius
    needed = math.ceil(steps * figure / RK4_REAL_LIMIT)
    if needed > max(steps, MAX_STEPS):
        raise ValueError(
            f"{'profile_csv' if profile.table else 'cn2'!r} is too strong for the full-IPE kernel's RK4:"
            f" h * max rate * rho(A0) = {figure:.3g} at {steps} steps; it needs {needed}, past {MAX_STEPS}"
        )
    if needed > steps:
        raise ValueError(
            f"'steps' = {steps} is unstable for the full-IPE kernel's RK4: h * max rate * rho(A0) ="
            f" {figure:.2f} exceeds {RK4_REAL_LIMIT}; use steps >= {needed}"
        )


def full_ipe_rate(omega1, omega2, profile: TurbulenceProfile, geom: LinkGeometry, cutoff: int, steps: int) -> tuple:
    """(z, rate): the RK4 nodes of a full-IPE kernel run and the coupling rate
    at each node (rows) of each frequency pair (omega1[i], omega2[i])
    (columns), after `_check_step_count` has refused an unstable step count.
    The one home of the step figure: `channel_kernel` runs on the table, and
    `config.validate_config` calls it to refuse the config up front."""
    z, cn2 = rk4_nodes(profile, geom, steps)
    rate = COUPLING_PREFACTOR * l_cross(z[:, None], omega1, omega2, cn2[:, None], geom.waist)
    _check_step_count(rate, profile, geom, cutoff, steps)
    return z, rate


def _cross_frequency_full_ipe(omega1, omega2, profile, geom, cutoff: int, steps: int) -> np.ndarray:
    """Fundamental-to-fundamental damping of the |omega1><omega2| coherence
    of every frequency pair (omega1[i], omega2[i]), all advanced together on
    the reflection-even half of sector 0 of the truncated LG basis."""
    side = cutoff + 1
    # per node (rows) and pair (columns), the two carriers on a leading axis
    z, rate = full_ipe_rate(omega1, omega2, profile, geom, cutoff, steps)
    t = normalized_distance(z[:, None], two_pi_c_over(np.stack([omega1, omega2]))[:, None, :], geom.waist)
    area = 1.0 + t * t  # a_i / w0^2
    ratio, phase = area / (0.5 * (area[0] + area[1])), np.arctan(t) + 0.5 * math.pi
    del t, area  # only the tables live through the run
    # the fundamental is reflection-even, and so is every derivative of an
    # even state, so only the l <= 0 blocks are carried; the blocks of
    # `chunk` successive nodes are built in one call, on tables padded with
    # the last node to whole chunks
    pairs, size = len(omega1), side**3
    chunk = max(1, min(len(z), FULL_IPE_BLOCK_ENTRIES // (pairs * size * size)))
    ratio, phase, rate = (np.concatenate([x, x[..., -1:, :].repeat(-len(z) % chunk, axis=-2)], axis=-2)
                          for x in (ratio, phase, rate))
    assemble = pair_coupling_assembler(cutoff, chunk * pairs, 0, even=True)

    # RK4 evaluates its midpoint twice, each step starts where the last one
    # ended and the nodes are read in order, so a one-entry memo builds
    # every chunk once
    @lru_cache(maxsize=1)
    def generator(start):
        nodes = slice(start, start + chunk)
        real, diagonal = assemble(ratio[:, nodes].reshape(2, -1), phase[:, nodes].reshape(2, -1))
        back = rate[nodes].reshape(-1, 1) * np.conj(diagonal)
        return real.reshape(chunk, pairs, size, size), diagonal.reshape(chunk, pairs, size), back.reshape(chunk, pairs, size)

    def derivative(k, state):
        real, diagonal, back = (x[k % chunk] for x in generator(k - k % chunk))
        dressed = diagonal * state  # (re, im) pairs as two columns of one real matmul
        product = (real @ dressed.view(np.float64).reshape(dressed.shape + (2,))).view(complex)
        return back * product[..., 0]

    state = np.zeros((pairs, size), dtype=complex)
    fundamental = cutoff * side * side  # r = 0 of the l = 0 block
    state[:, fundamental] = 1.0
    h = geom.path_length / steps
    for node in range(0, 2 * steps, 2):
        k1 = derivative(node, state)
        k2 = derivative(node + 1, state + 0.5 * h * k1)
        k3 = derivative(node + 1, state + 0.5 * h * k2)
        k4 = derivative(node + 2, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    values = state[:, fundamental]
    # off-diagonal frequency pairs acquire a small dispersive phase (the two
    # carriers couple to the mode ladder with different Gouy rotations); the
    # kernel contract is real-valued, so keep the modulus-level real part and
    # only fail if the phase of some pair stops being a perturbation
    too_large = ~(np.abs(values.imag) <= 0.05 * np.maximum(np.abs(values.real), 1e-12))  # NaN too
    if np.any(too_large):
        raise RuntimeError(f"cross-frequency population has imaginary part {values.imag[too_large][0]:.2e}")
    return values.real


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
    if grid_order > MAX_GRID_ORDER:
        raise CostGuardError(f"grid order {grid_order} exceeds {MAX_GRID_ORDER}")
    if fidelity is KernelFidelity.FULL_IPE:
        SolverConfig(cutoff=cutoff, steps=steps)  # refuses the step counts `propagate` refuses
        if grid_order > MAX_FULL_IPE_GRID or cutoff > MAX_FULL_IPE_CUTOFF:
            raise CostGuardError(
                f"full propagation kernels are limited to grid order {MAX_FULL_IPE_GRID}"
                f" and cutoff {MAX_FULL_IPE_CUTOFF}"
            )
    omegas = frequency_grid(spec, grid_order)
    matrix = np.ones((grid_order, grid_order))
    extinction = math.exp(-extinction_depth(extinction_per_km, geom.path_length))
    if not profile.is_zero:
        # the upper triangle, mirrored: the kernel is exactly symmetric
        rows, cols = _upper_triangle(grid_order)
        if fidelity is KernelFidelity.ANALYTIC:
            exponent = DECAY_CONSTANT * integrated_l(profile, geom, (omegas[rows], omegas[cols]))
            values = np.exp(-exponent)
        else:
            values = _cross_frequency_full_ipe(omegas[rows], omegas[cols], profile, geom, cutoff, steps)
        matrix[rows, cols] = matrix[cols, rows] = values
    return ChannelKernel(omegas=omegas, matrix=matrix * extinction)


@lru_cache(maxsize=None)
def _upper_triangle(order: int) -> tuple:
    """Read-only (rows, cols) of an order x order kernel's upper triangle."""
    rows, cols = np.triu_indices(order)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _traces(kernel: ChannelKernel, psi: np.ndarray) -> np.ndarray:
    """T_n = sum_i psi_n(i)^2 P(omega_i, omega_i) for each row psi_n of psi."""
    return (psi * psi * kernel.diagonal).sum(axis=-1)


def mode_trace(kernel: ChannelKernel, spec: BiphotonSpec, n: int) -> float:
    """Survival probability T_n of the n-th temporal mode (diagonal average)."""
    return float(_traces(kernel, kernel.mode_vectors(n + 1)[n:])[0])


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
    psi = kernel.mode_vectors(max_mode + 1)
    traces = _traces(kernel, psi)
    if not (traces > 0.0).all():
        raise RuntimeError(f"temporal mode {np.argmin(traces)} is fully absorbed (trace 0)")
    overlap = (psi[:, None, :] * psi[None, :, :]).reshape(-1, kernel.order)  # ((n, m), grid)
    s = np.einsum("ki,ki->k", overlap @ kernel.matrix, overlap).reshape(len(psi), len(psi))
    return TransmissionMatrix(matrix=s / traces[:, None], traces=traces)
