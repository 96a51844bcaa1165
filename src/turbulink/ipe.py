"""Propagation of the modal density matrix through turbulence.

Two truncation schemes of the same coupled mode equations are supported:

  TRUNCATED_EXACT   keep the gain term and the scalar total-rate loss; the
                    truncated basis leaks probability, so the fundamental-mode
                    population is a lower bound that rises with the cutoff.
  LINDBLAD_TRUNCATED rewrite the loss with the basis-summed rates (Lindblad
                    form); the truncated map conserves trace, so the same
                    population is an upper bound that falls with the cutoff.

The generator factorizes as  PREF * l(z) * (Gouy-phase dressing of a constant
tensor): the z dependence of the mode-correlation coefficients is a pure
phase b(z)^{Gouy order} (b = (1+it)/(1-it), t = z/z_R).  The solver works in
the rotating frame that removes those phases, leaving a constant gain plus a
diagonal commutator.  Every term conserves Delta = l_u - l_v, so each
Delta-l sector of the density matrix, a stack of l-blocks, is advanced on
its own with a dense gain block (`lgmodes.pair_tensor`) and the l-blocks of
the Lindblad rates; Delta < 0 is the adjoint of Delta > 0, and a
fundamental input never leaves sector 0.

Every propagation path (`propagate`, `cutoff_bracketing` and the full-IPE
kernel in `temporal`) advances its state with the one fixed-step `rk4_step`;
the first two share one rotating-frame sector derivative.  A run over a link
evaluates its z-dependent scalars (C_n^2, the rate, the Gouy rate and phases)
once, vectorized, on the RK4 nodes of `rk4_nodes`, whose last node is exactly
the path length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .lgmodes import COUPLING_PREFACTOR, DECAY_CONSTANT, LGIndex, ModeBasis
from .lgmodes import coefficient_stack, pair_tensor, sector_blocks
from .turbulence import LinkGeometry, TurbulenceProfile, cn2_at, integrated_l, l_strength

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-9
# trace may overshoot 1 by the fixed-step integrator's truncation error at
# the default step count; 1e-6 is the documented tolerance budget
TRACE_TOL = 1e-6


class SolverError(RuntimeError):
    """Step-doubling check failed; carries both trace estimates."""

    def __init__(self, message: str, coarse: float, fine: float):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


class PropagationScheme(Enum):
    TRUNCATED_EXACT = "truncated_exact"
    LINDBLAD_TRUNCATED = "lindblad_truncated"


@dataclass(frozen=True)
class SolverConfig:
    """Cutoff, scheme and fixed-step integrator settings."""

    cutoff: int = 4
    scheme: PropagationScheme = PropagationScheme.TRUNCATED_EXACT
    steps: int = 256
    check_convergence: bool = False

    def __post_init__(self):
        if self.steps < 16:
            raise ValueError("step count must be >= 16")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix over a ModeBasis, trace <= 1."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        size = self.basis.size
        if self.matrix.shape != (size, size):
            raise ValueError("matrix shape does not match basis size")
        deviation = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if deviation > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian (deviation {deviation:.2e})")
        trace = float(np.trace(self.matrix).real)
        if trace > 1.0 + TRACE_TOL:
            raise ValueError(f"trace {trace} exceeds 1")
        lowest = float(np.linalg.eigvalsh(self.matrix)[0])
        if lowest < -POSITIVITY_TOL:
            raise ValueError(f"matrix not positive semidefinite (lambda_min {lowest:.2e})")

    @classmethod
    def pure(cls, basis: ModeBasis, index: LGIndex) -> "DensityMatrix":
        matrix = np.zeros((basis.size, basis.size), dtype=complex)
        position = basis.position(index)
        matrix[position, position] = 1.0
        return cls(basis=basis, matrix=matrix)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class GeneratorParts:
    """Cutoff-dependent, geometry-independent generator pieces for the
    Delta-l sector delta.

    gain0: dense sector block of the normalized coupling at t = 0
           (multiply by PREF * l(z) for the rotating-frame gain);
    gamma0: basis-summed rate matrix (Hermitian, same normalization), block
           diagonal in l, as its 2c+1 l-blocks;
    gouy:  half Gouy orders r + |l| / 2 per (l-block, r).
    """

    basis: ModeBasis
    delta: int
    gain0: np.ndarray = field(repr=False)
    gamma0: np.ndarray = field(repr=False)
    gouy: np.ndarray = field(repr=False)


@lru_cache(maxsize=32)
def generator_parts(cutoff: int, delta: int) -> GeneratorParts:
    basis = ModeBasis(cutoff)
    side, blocks = cutoff + 1, 2 * cutoff + 1
    stack = coefficient_stack(basis, 0.0)
    gain0 = pair_tensor(basis, stack, np.conj(stack), delta)
    if delta == 0:
        # Gamma0[u, v] = sum_n T[n, u, n, v] runs over sector 0's diagonal entries
        gamma0 = np.einsum("qabpmm->qab", gain0.reshape(blocks, side, side, blocks, side, side))
    else:
        gamma0 = generator_parts(cutoff, 0).gamma0
    gouy = np.array([idx.gouy_weight for idx in basis.indices]).reshape(blocks, side)
    return GeneratorParts(basis, delta, gain0, gamma0, gouy)


def rk4_nodes(profile: TurbulenceProfile, geom: LinkGeometry, steps: int) -> tuple:
    """(z, C_n^2) on the nodes z_k = k L / (2 steps), k = 0 ... 2 steps, of a
    fixed-step RK4 run over the link: step s starts at node 2s and has its
    midpoint at node 2s + 1.  The last node is exactly L."""
    z = np.linspace(0.0, geom.path_length, 2 * steps + 1)
    return z, np.broadcast_to(cn2_at(profile, geom, z), z.shape)


def rk4_step(derivative, node: int, state: np.ndarray, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of d state / dz = derivative(k, state)
    from node `node` to node + 2 of a half-step node grid (see `rk4_nodes`)."""
    k1 = derivative(node, state)
    k2 = derivative(node + 1, state + 0.5 * h * k1)
    k3 = derivative(node + 1, state + 0.5 * h * k2)
    k4 = derivative(node + 2, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _derivative(parts: GeneratorParts, scheme: PropagationScheme, table=None):
    """d rho / dz at node k on one sector (its stack of l-blocks) in the
    rotating frame: PREF l(z) (R0 rho - [Q rho + rho Q^dagger] / 2) plus the
    Gouy commutator, the bracket only for LINDBLAD_TRUNCATED.

    For TRUNCATED_EXACT the scalar total-rate loss has already been
    cancelled against the diagonal of the gain (the two are equal and the
    combination is outer-scale free); for LINDBLAD_TRUNCATED the
    basis-summed anticommutator with Q(z) = Gamma(z)^T replaces it.  The
    table holds the rate, Gouy rate and Q phases on a run's `rk4_nodes`;
    without it the generator is frozen at t = 0 with l = 1 and no Gouy term,
    which makes z the path-integrated decay density (and k is unused).
    """
    lindblad = scheme is PropagationScheme.LINDBLAD_TRUNCATED
    frozen = table is None
    lo_row, lo_col, count = sector_blocks(parts.basis, parts.delta)
    rows, cols = slice(lo_row, lo_row + count), slice(lo_col, lo_col + count)
    gain, gamma0_t = parts.gain0, parts.gamma0.transpose(0, 2, 1)
    gouy_comm = 2j * (parts.gouy[rows, :, None] - parts.gouy[cols, None, :])
    rates, theta_rates, q_phases = (None, None, None) if frozen else table

    def derivative(k, rho):
        rate = COUPLING_PREFACTOR if frozen else rates[k]
        out = rate * (gain @ rho.reshape(-1)).reshape(rho.shape)
        if lindblad:
            q = gamma0_t
            if not frozen:
                phase = q_phases[k]
                q = (phase[:, :, None] * gamma0_t) * np.conj(phase)[:, None, :]
            out -= 0.5 * rate * (q[rows] @ rho + rho @ q[cols].conj().transpose(0, 2, 1))
        if not frozen:
            out += (theta_rates[k] * gouy_comm) * rho
        return out

    return derivative


def _propagate_fixed(rho0, profile, geom, config, steps):
    # occupied sectors with delta >= 0; only sector 0 holds its own adjoint
    cutoff, side = config.cutoff, config.cutoff + 1
    rho = np.zeros(rho0.matrix.shape, dtype=complex)
    blocks_in = rho0.matrix.reshape(2 * cutoff + 1, side, 2 * cutoff + 1, side)
    blocks_out = rho.reshape(blocks_in.shape)
    h = geom.path_length / steps
    z, cn2 = rk4_nodes(profile, geom, steps)
    z_r, gouy = geom.rayleigh_range, generator_parts(cutoff, 0).gouy
    rates = COUPLING_PREFACTOR * l_strength(z, cn2, geom.wavelength, geom.waist)
    lindblad = config.scheme is PropagationScheme.LINDBLAD_TRUNCATED
    q_phases = np.exp(4j * np.arctan2(z, z_r)[:, None, None] * gouy) if lindblad else None
    # Python floats: a numpy scalar costs more per small-array product
    table = rates.tolist(), (z_r / (z_r * z_r + z * z)).tolist(), q_phases
    for delta in range(2 * cutoff + 1):
        lo_row, lo_col, count = sector_blocks(rho0.basis, delta)
        p = np.arange(count)
        state = blocks_in[lo_row + p, :, lo_col + p, :].astype(complex)
        if not np.any(state):
            continue
        derivative = _derivative(generator_parts(cutoff, delta), config.scheme, table)
        for step in range(steps):
            state = rk4_step(derivative, 2 * step, state, h)
            if delta == 0:
                state = 0.5 * (state + state.conj().transpose(0, 2, 1))
        blocks_out[lo_row + p, :, lo_col + p, :] = state
        blocks_out[lo_col + p, :, lo_row + p, :] = state.conj().transpose(0, 2, 1)
    # undo the rotating-frame (Gouy) gauge at the receiver plane
    theta_f = math.atan2(geom.path_length, z_r)
    gouy = gouy.reshape(-1)
    return np.exp(-2j * theta_f * (gouy[:, None] - gouy[None, :])) * rho


def propagate(
    rho0: DensityMatrix,
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    config: SolverConfig,
) -> DensityMatrix:
    """Integrate the density matrix from the transmitter to z_f.

    Fixed-step 4th-order Runge-Kutta in the rotating frame; the matrix is
    re-symmetrized every step.  With check_convergence set, the run is
    repeated at half the step size and the traces must agree to 1e-8.
    """
    if rho0.basis.cutoff != config.cutoff:
        raise ValueError("density matrix basis does not match solver cutoff")
    if profile.is_zero:
        # no scattering: the state rides the co-propagating basis unchanged
        return rho0
    final = _propagate_fixed(rho0, profile, geom, config, config.steps)
    if config.check_convergence:
        refined = _propagate_fixed(rho0, profile, geom, config, 2 * config.steps)
        coarse, fine = float(np.trace(final).real), float(np.trace(refined).real)
        if abs(coarse - fine) > 1e-8:
            raise SolverError(
                f"step-doubling trace mismatch: {coarse} vs {fine}", coarse, fine
            )
        final = refined
    return DensityMatrix(basis=rho0.basis, matrix=final)


def lowest_mode_probability(rho: DensityMatrix) -> float:
    """Population of the fundamental (r=0, l=0) mode."""
    position = rho.basis.fundamental
    value = rho.matrix[position, position]
    if abs(value.imag) > 1e-10:
        raise ValueError(f"fundamental population has imaginary part {value.imag:.2e}")
    return float(value.real)


def analytic_decay(
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    frequencies=None,
    extinction_per_km: float = 0.0,
) -> float:
    """Pure-decay survival probability exp(-54.1 * int l dz) times extinction.

    Exact for the single-mode truncation; the weak-turbulence limit of the
    full propagation.
    """
    exponent = DECAY_CONSTANT * integrated_l(profile, geom, frequencies)
    extinction = extinction_per_km * geom.path_length / 1000.0
    return math.exp(-exponent - extinction)


def cutoff_bracketing(l_values, cutoffs, schemes=None) -> dict:
    """Fundamental-mode population against the path-integrated decay density.

    Evaluated in the short-distance regime (t = z/z_R -> 0) where the
    generator is proportional to l(z) and the population depends on
    l_I = int l dz alone; this is the collapse that puts both truncation
    families on a single axis.  Returns {(scheme, cutoff): array over
    l_values}.
    """
    l_values = np.asarray(l_values, dtype=float)
    if np.any(l_values < 0) or np.any(np.diff(l_values) <= 0):
        raise ValueError("l_values must be nonnegative and increasing")
    if schemes is None:
        schemes = (PropagationScheme.TRUNCATED_EXACT, PropagationScheme.LINDBLAD_TRUNCATED)
    results = {}
    for cutoff in cutoffs:
        # sector 0 only; the fundamental is r = 0 of the l = 0 block
        parts = generator_parts(cutoff, 0)
        for scheme in schemes:
            derivative = _derivative(parts, scheme)
            rho = np.zeros((2 * cutoff + 1, cutoff + 1, cutoff + 1), dtype=complex)
            rho[cutoff, 0, 0] = 1.0
            probabilities = np.empty(len(l_values))
            tau = 0.0
            base_step = l_values[-1] / 512.0 if l_values[-1] > 0 else 1.0
            for k, target in enumerate(l_values):
                span = target - tau
                if span > 0:
                    n_steps = max(1, int(math.ceil(span / max(base_step, 1e-30))))
                    h = span / n_steps
                    for _ in range(n_steps):
                        rho = rk4_step(derivative, 0, rho, h)
                    tau = target
                probabilities[k] = rho[cutoff, 0, 0].real
            results[(scheme, cutoff)] = probabilities
    return results


def distance_sweep(
    cn2_values,
    distances,
    wavelength: float,
    waist_rule=None,
    transmitter_height: float = 19.0,
    receiver_height: float = 19.0,
    extinction_per_km: float = 0.0,
) -> list:
    """Pure-decay link budget over a distance grid for a family of C_n^2 values.

    waist_rule maps distance (m) to the transmitted waist (m); the default
    is the probability-optimal 0.75 sqrt(lambda z / pi).  Returns a list of
    row dicts sorted by (cn2, distance).
    """
    if waist_rule is None:
        def waist_rule(z):
            return 0.75 * math.sqrt(wavelength * z / math.pi)

    rows = []
    for cn2 in sorted(cn2_values):
        profile = TurbulenceProfile.from_constant(cn2)
        for distance in sorted(distances):
            waist = waist_rule(distance)
            geom = LinkGeometry(
                path_length=distance,
                transmitter_height=transmitter_height,
                receiver_height=receiver_height,
                waist=waist,
                wavelength=wavelength,
            )
            l_integral = integrated_l(profile, geom)
            extinction = extinction_per_km * distance / 1000.0
            rows.append(
                {
                    "cn2": cn2,
                    "distance_m": distance,
                    "waist_m": waist,
                    "l_integral": l_integral,
                    "probability": math.exp(-DECAY_CONSTANT * l_integral - extinction),
                }
            )
    return rows
