"""Propagation of the modal density matrix through turbulence.

Two truncation schemes of the same coupled mode equations are supported:

  TRUNCATED_EXACT   keep the gain term and the scalar total-rate loss; the
                    truncated basis leaks probability, so the fundamental-mode
                    population is a lower bound that rises with the cutoff.
  LINDBLAD_TRUNCATED rewrite the loss with the basis-summed rates (Lindblad
                    form); the truncated map conserves trace, so the same
                    population is an upper bound that falls with the cutoff.

In the rotating frame that removes the Gouy phases of the mode-correlation
coefficients every term conserves Delta = l_u - l_v, so each Delta-l sector
(a stack of l-blocks) is advanced on its own as a real coordinate vector x,
x' = rate(z) A x + gouy(z) C x: one fixed operator A per scheme and the Gouy
commutator C (`generator_parts`), the two rates tabulated once per run on
the nodes of `rk4_nodes`.  Delta < 0 is the adjoint of Delta > 0, and sector
0, which a fundamental input never leaves, is Hermitian by construction.
`propagate`, `cutoff_bracketing` (A alone, at t = 0) and the full-IPE kernel
in `temporal` advance their states with the one fixed-step `rk4_step`; in
`propagate` a sector of at most STEP_MATRIX_SIZE coordinates takes the same
RK4 polynomial as step matrices, every step formed at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .lgmodes import COUPLING_PREFACTOR, DECAY_CONSTANT, LGIndex, ModeBasis
from .lgmodes import coefficient_stack, pair_tensor, sector_blocks
from .turbulence import LinkGeometry, TurbulenceProfile, cn2_at, integrated_l, l_strength

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-9
# only rounding can lift the trace above 1: the exact truncation loses trace
# and each RK4 stage of the Lindblad form conserves it; a loose bound
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
        for name in ("steps", "cutoff"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
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
    """The fixed real operators of one Delta-l sector on its real coordinates
    (`_layout`), which obey x' = rate(z) A x + gouy(z) C x.  A is `gain` (the
    `lgmodes.pair_tensor` block at t = 0; its scalar total-rate loss cancels
    against the gain's diagonal, so the combination is outer-scale free) or
    `lindblad` = gain - B / 2, B: rho -> Q rho + rho Q^dagger with Q = Gamma0^T.
    C, the Gouy commutator 2i(g_u - g_v), turns each (Re, Im) pair:
    (C x)[i] = turn[i] x[partner[i]], with turn 0 on sector 0's diagonal."""

    gain: np.ndarray = field(repr=False)
    lindblad: np.ndarray = field(repr=False)
    turn: np.ndarray = field(repr=False)
    partner: np.ndarray = field(repr=False)

    def operator(self, scheme: PropagationScheme) -> np.ndarray:
        return self.lindblad if scheme is PropagationScheme.LINDBLAD_TRUNCATED else self.gain

    @cached_property
    def stacks(self) -> dict:
        """{scheme: (2, m, m) A of the scheme, then C, as dense matrices}."""
        rotation = np.eye(len(self.turn))[self.partner] * self.turn[:, None]
        return {scheme: np.stack([self.operator(scheme), rotation]) for scheme in PropagationScheme}


# up to this many coordinates `propagate` forms a sector's RK4 step matrices
# at once (`_step_product`) instead of stepping; on one core the two cost the
# same near 30.  The matrices of STEP_CHUNK steps are held at a time.
STEP_MATRIX_SIZE = 24
STEP_CHUNK = 1024


@lru_cache(maxsize=64)
def _layout(side: int, hermitian: bool, count: int) -> tuple:
    """(k, w, v), each (T, m): coordinate i of `count` l-blocks of row-major
    entries e is Re(sum_t w[t, i] e[k[t, i]]), and the unit vector of
    coordinate j has the entries v[:, j] at k[:, j].  A Hermitian block holds
    side^2 reals (T = 2: its diagonal, then Re and Im of its strict upper
    triangle, read from its Hermitian part), any other Re, then Im, of each entry."""
    flat, (a, b) = np.arange(side * side), np.triu_indices(side, 1)
    if hermitian:
        diag, upper, lower = flat[:: side + 1], a * side + b, b * side + a
        one, half = np.ones(side), np.full(len(a), 0.5)
        k = [np.concatenate([diag, upper, upper]), np.concatenate([diag, lower, lower])]
        w = [np.concatenate([one, half, -1j * half]), np.concatenate([0 * one, half, 1j * half])]
    else:
        k, w = [np.tile(flat, 2)], [np.repeat([1, -1j], side * side)]
    k = np.concatenate([np.stack(k) + p * side * side for p in range(count)], axis=1)
    w = np.tile(np.stack(w), count)
    return k, w, np.conj(w) / np.sum(np.abs(w) ** 2, axis=0)


def _real_form(op: np.ndarray, layout: tuple) -> np.ndarray:
    """The real matrix, by index gathering, of the complex-linear map `op`
    (its last two axes act on row-major entries) in the coordinates `layout`."""
    k, w, v = layout
    pairs = np.ndindex(len(k), len(k))
    return sum((w[a][:, None] * op[..., k[a][:, None], k[b]] * v[b]).real for a, b in pairs)


def _coordinates(blocks: np.ndarray, hermitian: bool) -> np.ndarray:
    """Real coordinates of a (count, side, side) stack of l-blocks."""
    k, w, _ = _layout(blocks.shape[-1], hermitian, len(blocks))
    return np.sum(w * blocks.reshape(-1)[k], axis=0).real


def _blocks(x: np.ndarray, count: int, side: int, hermitian: bool) -> np.ndarray:
    """The (count, side, side) stack of l-blocks with real coordinates x."""
    k, _, v = _layout(side, hermitian, count)
    entries = np.zeros(count * side * side, dtype=complex)
    np.add.at(entries, k, v * x)
    return entries.reshape(count, side, side)


@lru_cache(maxsize=8)
def _sector0(cutoff: int) -> tuple:
    """(sector 0's gain on its real coordinates, Q(0) = Gamma0^T per l-block):
    Gamma0[u, v] = sum_n T[n, u, n, v] runs over sector 0's diagonal entries."""
    basis, side = ModeBasis(cutoff), cutoff + 1
    stack = coefficient_stack(basis, 0.0)
    sector0 = pair_tensor(basis, stack, np.conj(stack), 0)
    q0 = np.einsum("qabpmm->qba", sector0.reshape((2 * cutoff + 1, side, side) * 2))
    return _real_form(sector0, _layout(side, True, 2 * cutoff + 1)), q0


@lru_cache(maxsize=32)
def generator_parts(cutoff: int, delta: int) -> GeneratorParts:
    basis, side, sq = ModeBasis(cutoff), cutoff + 1, (cutoff + 1) ** 2
    lo_row, lo_col, count = sector_blocks(basis, delta)
    rows, cols = slice(lo_row, lo_row + count), slice(lo_col, lo_col + count)
    gain, q0 = _sector0(cutoff)
    if delta:
        stack = coefficient_stack(basis, 0.0)
        gain = _real_form(pair_tensor(basis, stack, np.conj(stack), delta), _layout(side, False, count))
    # per l-block on its row-major entries: rho -> Q rho + rho Q^dagger and
    # the Gouy commutator, in real coordinates, then block-diagonal in the sector
    gouy, eye = np.array([idx.gouy_weight for idx in basis.indices]).reshape(-1, side), np.eye(side)
    bracket = np.einsum("pac,be->pabce", q0[rows], eye) + np.einsum("ac,pbe->pabce", eye, np.conj(q0[cols]))
    commutator = np.eye(sq) * 2j * (gouy[rows, :, None] - gouy[cols, None, :]).reshape(count, 1, sq)
    local = _real_form(np.stack([bracket.reshape(count, sq, sq), commutator]), _layout(side, delta == 0, 1))
    p, ops = np.arange(count), np.zeros((2, count, local.shape[-1], count, local.shape[-1]))
    ops[:, p, :, p, :] = local.transpose(1, 0, 2, 3)
    bracket, rotation = ops.reshape(2, len(gain), len(gain))
    # the commutator turns each (Re, Im) pair: one entry per row at most
    partner = np.argmax(np.abs(rotation), axis=1)
    return GeneratorParts(gain, gain - 0.5 * bracket, rotation[np.arange(len(gain)), partner], partner)


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


def _derivative(parts: GeneratorParts, scheme: PropagationScheme, table: np.ndarray):
    """d x / dz at node k of the node rows `table` = (rate, Gouy rate):
    rate_k A x + gouy_k C x, with the rotation gouy_k turn tabulated per node
    (in Python lists: indexing them costs less than indexing arrays)."""
    operator, partner = parts.operator(scheme), parts.partner
    rates, turns = list(table[:, 0]), list(table[:, 1:] * parts.turn)
    return lambda k, x: rates[k] * (operator @ x) + turns[k] * x[partner]


def _step_product(stack: np.ndarray, table: np.ndarray, h: float) -> np.ndarray:
    """P_{S-1} ... P_0 over the S = len(table) // 2 steps on the node rows
    `table`: x <- P_s x is `rk4_step` on x' = A_k x, A_k = table[k] @ `stack`,
    so P_s = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A_2s,
    K2 = A_2s+1 (I + h/2 K1), K3 = A_2s+1 (I + h/2 K2), K4 = A_2s+2 (I + h K3).
    Every step at once from the dense stack, then multiplied pairwise."""
    size = stack.shape[-1]
    a = (table @ stack.reshape(2, -1)).reshape(-1, size, size)
    a0, a1, a2 = a[:-1:2], a[1::2], a[2::2]
    k = a1 @ a0
    k *= 0.5 * h
    k += a1  # K2
    total = k + 0.5 * a0
    k = a1 @ k
    k *= 0.5 * h
    k += a1  # K3
    total += k
    k = a2 @ k
    k *= h
    k += a2  # K4
    total += 0.5 * k
    total *= h / 3.0
    total += np.eye(size)
    while len(total) > 1:
        pairs = len(total) // 2 * 2
        total = np.concatenate([total[1:pairs:2] @ total[:pairs:2], total[pairs:]])
    return total[0]


def _propagate_fixed(rho0, profile, geom, config, steps):
    # occupied sectors with delta >= 0; only sector 0 holds its own adjoint
    cutoff, side = config.cutoff, config.cutoff + 1
    rho, shape = np.zeros(rho0.matrix.shape, dtype=complex), (2 * cutoff + 1, side, 2 * cutoff + 1, side)
    blocks_in, blocks_out = rho0.matrix.reshape(shape), rho.reshape(shape)
    h, z_r = geom.path_length / steps, geom.rayleigh_range
    z, cn2 = rk4_nodes(profile, geom, steps)
    rates = COUPLING_PREFACTOR * l_strength(z, cn2, geom.wavelength, geom.waist)
    table = np.column_stack([rates, z_r / (z_r * z_r + z * z)])
    for delta in range(2 * cutoff + 1):
        lo_row, lo_col, count = sector_blocks(rho0.basis, delta)
        p = np.arange(count)
        state = blocks_in[lo_row + p, :, lo_col + p, :]
        if not np.any(state):
            continue
        x, parts = _coordinates(state, delta == 0), generator_parts(cutoff, delta)
        if len(x) <= STEP_MATRIX_SIZE:
            stack = parts.stacks[config.scheme]
            for start in range(0, steps, STEP_CHUNK):
                x = _step_product(stack, table[2 * start : 2 * min(start + STEP_CHUNK, steps) + 1], h) @ x
        else:
            derivative = _derivative(parts, config.scheme, table)
            for step in range(steps):
                x = rk4_step(derivative, 2 * step, x, h)
        state = _blocks(x, count, side, delta == 0)
        blocks_out[lo_row + p, :, lo_col + p, :] = state
        blocks_out[lo_col + p, :, lo_row + p, :] = state.conj().transpose(0, 2, 1)
    # undo the rotating-frame (Gouy) gauge at the receiver plane
    gouy = np.array([idx.gouy_weight for idx in rho0.basis.indices])
    return np.exp(-2j * math.atan2(geom.path_length, z_r) * (gouy[:, None] - gouy[None, :])) * rho


def propagate(
    rho0: DensityMatrix,
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    config: SolverConfig,
) -> DensityMatrix:
    """Integrate the density matrix from the transmitter to z_f.

    Fixed-step 4th-order Runge-Kutta in the rotating frame, one occupied
    Delta-l sector at a time on its real coordinates (sector 0 is Hermitian
    by construction).  With check_convergence set, the run is repeated at
    half the step size and the traces must agree to 1e-8.
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
    if len(l_values) == 0 or np.any(l_values < 0) or np.any(np.diff(l_values) <= 0):
        raise ValueError("l_values must be nonempty, nonnegative and increasing")
    if schemes is None:
        schemes = (PropagationScheme.TRUNCATED_EXACT, PropagationScheme.LINDBLAD_TRUNCATED)
    base_step = l_values[-1] / 512.0 if l_values[-1] > 0 else 1.0
    results = {}
    for cutoff in cutoffs:
        # sector 0 only; the fundamental is the first coordinate of the l = 0 block
        parts, fundamental = generator_parts(cutoff, 0), cutoff * (cutoff + 1) ** 2
        for scheme in schemes:
            operator = COUPLING_PREFACTOR * parts.operator(scheme)
            x = np.eye(len(operator))[fundamental]
            probabilities = np.empty(len(l_values))
            tau = 0.0
            for k, target in enumerate(l_values):
                span = target - tau
                if span > 0:
                    n_steps = max(1, int(math.ceil(span / max(base_step, 1e-30))))
                    h = span / n_steps
                    for _ in range(n_steps):
                        x = rk4_step(lambda _, y: operator @ y, 0, x, h)
                    tau = target
                probabilities[k] = x[fundamental]
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
