"""Two-frequency decay kernel and the temporal-mode transmission matrix.

The channel damps each frequency-basis element |omega1><omega2| of the
lowest spatial mode by a factor P(omega1, omega2).  Sampling P on the
Gauss-Hermite grid matched to the source bandwidth turns every temporal-mode
quantity into a small quadratic form: mode traces, the transmission matrix
S_{n,m}, and the per-mode output densities.

Two kernel fidelities:
  ANALYTIC  pure decay, P = exp(-54.1 * int l(omega1, omega2, z) dz); this is
            the regime in which the reference transmission matrix lives.
  FULL_IPE  carry each |omega1><omega2| coherence over sector 0 of a
            truncated LG basis and read off the fundamental-fundamental
            element; kept as a validation path.  Every frequency pair of the
            grid advances in one batched state through `ipe.rk4_step`, with
            its z-dependent scalars tabulated once on the RK4 nodes and its
            coupling built per node by `lgmodes.pair_coupling_assembler`; at
            omega1 = omega2 it is the single-frequency propagation of
            `ipe.propagate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .ipe import DECAY_CONSTANT, rk4_nodes, rk4_step
from .lgmodes import COUPLING_PREFACTOR, pair_coupling_assembler
from .mathcore import gauss_hermite_rule
from .schmidt import BiphotonSpec, discrete_modes, frequency_grid
from .turbulence import LinkGeometry, TurbulenceProfile, integrated_l, l_cross, normalized_distance, two_pi_c_over

MAX_GRID_ORDER = 64
MAX_FULL_IPE_GRID = 12
# Run cost bounds the cutoff: a grid-12 kernel (78 frequency pairs in one
# batched RK4) takes 23 s at cutoff 4 and 54 s at cutoff 5 (128 steps; 105 s
# at 256) on one core of a 2-vCPU x86 VM, at 230 MB peak RSS.
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
    """Decay surface P(omega_i, omega_j) on a Gauss-Hermite frequency grid."""

    spec: BiphotonSpec
    omegas: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray

    @property
    def order(self) -> int:
        return len(self.omegas)

    def mode_vectors(self, count: int) -> np.ndarray:
        """Discrete orthonormal temporal-mode vectors on the kernel grid."""
        if count > self.order // 2:
            raise ResolutionError(
                f"mode order {count - 1} not resolvable on a grid of {self.order} nodes"
            )
        return discrete_modes(self.spec, self.nodes, self.weights, count)


def _cross_frequency_full_ipe(omega1, omega2, profile, geom, cutoff: int, steps: int) -> np.ndarray:
    """Fundamental-to-fundamental damping of the |omega1><omega2| coherence
    of every frequency pair (omega1[i], omega2[i]), all advanced together on
    sector 0 of the truncated LG basis."""
    side, count = cutoff + 1, 2 * cutoff + 1
    # per node (rows) and pair (columns), the two carriers on a leading axis
    z, cn2 = rk4_nodes(profile, geom, steps)
    rate = COUPLING_PREFACTOR * l_cross(z[:, None], omega1, omega2, cn2[:, None], geom.waist)
    t = normalized_distance(z[:, None], two_pi_c_over(np.stack([omega1, omega2]))[:, None, :], geom.waist)
    area = 1.0 + t * t  # a_i / w0^2
    ratio, phase = area / (0.5 * (area[0] + area[1])), np.arctan(t) + 0.5 * math.pi
    del t, area  # only the tables live through the run
    assemble = pair_coupling_assembler(cutoff, len(omega1))
    # RK4 evaluates its midpoint twice and each step starts where the last
    # one ended, so a one-entry memo builds every node once
    generator = lru_cache(maxsize=1)(lambda k: assemble(ratio[:, k], phase[:, k]))

    def derivative(k, state):
        real, diagonal = generator(k)
        dressed = diagonal * state  # (re, im) pairs as two columns of one real matmul
        product = (real @ dressed.view(np.float64).reshape(dressed.shape + (2,))).view(complex)
        return rate[k][:, None] * np.conj(diagonal) * product[..., 0]

    state = np.zeros((len(omega1), count * side * side), dtype=complex)
    fundamental = cutoff * side * side  # r = 0 of the l = 0 block
    state[:, fundamental] = 1.0
    for step in range(steps):
        state = rk4_step(derivative, 2 * step, state, geom.path_length / steps)
    values = state[:, fundamental]
    # off-diagonal frequency pairs acquire a small dispersive phase (the two
    # carriers couple to the mode ladder with different Gouy rotations); the
    # kernel contract is real-valued, so keep the modulus-level real part and
    # only fail if the phase of some pair stops being a perturbation
    too_large = np.abs(values.imag) > 0.05 * np.maximum(np.abs(values.real), 1e-12)
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
    if fidelity is KernelFidelity.FULL_IPE and (
        grid_order > MAX_FULL_IPE_GRID or cutoff > MAX_FULL_IPE_CUTOFF
    ):
        raise CostGuardError(
            f"full propagation kernels are limited to grid order {MAX_FULL_IPE_GRID}"
            f" and cutoff {MAX_FULL_IPE_CUTOFF}"
        )
    rule = gauss_hermite_rule(grid_order)
    omegas = frequency_grid(spec, rule.nodes)
    matrix = np.ones((grid_order, grid_order))
    extinction = math.exp(-extinction_per_km * geom.path_length / 1000.0)
    if not profile.is_zero:
        # the upper triangle, mirrored: the kernel is exactly symmetric
        rows, cols = np.triu_indices(grid_order)
        if fidelity is KernelFidelity.ANALYTIC:
            exponent = DECAY_CONSTANT * integrated_l(profile, geom, (omegas[rows], omegas[cols]))
            values = np.exp(-exponent)
        else:
            values = _cross_frequency_full_ipe(omegas[rows], omegas[cols], profile, geom, cutoff, steps)
        matrix[rows, cols] = matrix[cols, rows] = values
    matrix = matrix * extinction
    return ChannelKernel(
        spec=spec,
        omegas=omegas,
        nodes=rule.nodes,
        weights=rule.weights,
        matrix=matrix,
    )


def mode_trace(kernel: ChannelKernel, spec: BiphotonSpec, n: int) -> float:
    """Survival probability T_n of the n-th temporal mode (diagonal average)."""
    psi = kernel.mode_vectors(n + 1)[n]
    return float(np.sum(psi * psi * np.diag(kernel.matrix)))


@dataclass(frozen=True)
class TransmissionMatrix:
    """Normalized mode-to-mode transition probabilities S[n, m] with traces."""

    matrix: np.ndarray
    traces: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def row_leakage(self, n: int) -> float:
        """Probability lost to modes above the truncation for input mode n."""
        return 1.0 - float(self.matrix[n].sum())


def transmission_matrix(kernel: ChannelKernel, spec: BiphotonSpec, max_mode: int) -> TransmissionMatrix:
    """S[n, m]: probability of receiving temporal mode m when n was sent.

    Rows are normalized by the mode traces T_n, so each full row over all
    modes sums to one; the returned block stops at max_mode.
    """
    psi = kernel.mode_vectors(max_mode + 1)
    diag = np.diag(kernel.matrix)
    traces = np.array([float(np.sum(p * p * diag)) for p in psi])
    overlap = psi[:, None, :] * psi[None, :, :]  # (n, m, grid)
    s = np.einsum("nmi,ij,nmj->nm", overlap, kernel.matrix, overlap)
    return TransmissionMatrix(matrix=s / traces[:, None], traces=traces)
