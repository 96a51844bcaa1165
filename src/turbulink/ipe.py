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
`propagate` and the full-IPE kernel in `temporal`, whose generators change
along z, advance their states with the one fixed-step `rk4_step`; in
`propagate` a sector of at most STEP_MATRIX_SIZE coordinates takes the same
RK4 polynomial as step matrices, every step formed at once.  `propagate`
refuses a step count with h * max rate * rho(A) past RK4's real-axis limit
before it takes a step: the Lindblad form keeps the trace while it blows
up, so no check after the run would catch it.
`cutoff_bracketing` freezes the generator at t = 0 (A alone) and takes the
fundamental entry of exp(l A) from A's eigendecomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .lgmodes import COUPLING_PREFACTOR, DECAY_CONSTANT, LGIndex, ModeBasis, sector_blocks, sector_coupling
from .turbulence import LinkGeometry, TurbulenceProfile, cn2_at, extinction_depth, integrated_l, l_strength

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


# classical RK4 is stable on the negative real axis for h |lambda| up to 2.785
RK4_REAL_LIMIT = 2.785

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


@lru_cache(maxsize=32)
def generator_parts(cutoff: int, delta: int) -> tuple:
    """(operators, turn, partner): one Delta-l sector's real coordinates
    (`_layout`) obey x' = rate(z) A x + gouy(z) C x.  operators[scheme] is A:
    for TRUNCATED_EXACT the gain (the `lgmodes.sector_coupling` block at t = 0;
    its scalar total-rate loss cancels against the gain's diagonal, so it is
    outer-scale free), for LINDBLAD_TRUNCATED gain - B / 2 with
    B: rho -> Q rho + rho Q^dagger, Q = Gamma0^T.  C, the Gouy commutator
    2i(g_u - g_v), turns each (Re, Im) pair: (C x)[i] = turn[i] x[partner[i]],
    with turn 0 on sector 0's diagonal."""
    basis, side, sq = ModeBasis(cutoff), cutoff + 1, (cutoff + 1) ** 2
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    rows, cols = slice(lo_row, lo_row + count), slice(lo_col, lo_col + count)
    gain = _real_form(sector_coupling(cutoff, delta, 0.0), _layout(side, delta == 0, count))
    # Q(0) = Gamma0^T per l-block: Gamma0[u, v] = sum_n T[n, u, n, v] runs over sector 0's diagonal
    q0 = np.einsum("qabpmm->qba", sector_coupling(cutoff, 0, 0.0).reshape((2 * cutoff + 1, side, side) * 2))
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
    operators = {PropagationScheme.TRUNCATED_EXACT: gain, PropagationScheme.LINDBLAD_TRUNCATED: gain - 0.5 * bracket}
    return operators, rotation[np.arange(len(gain)), partner], partner


@lru_cache(maxsize=64)
def _spectral_radius(cutoff: int, delta: int, scheme: PropagationScheme) -> float:
    """Largest |eigenvalue| of a sector's operator A (see `generator_parts`)."""
    return float(np.max(np.abs(np.linalg.eigvals(generator_parts(cutoff, delta)[0][scheme]))))


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


def _derivative(operator: np.ndarray, turn: np.ndarray, partner: np.ndarray, table: np.ndarray):
    """d x / dz at node k of the node rows `table` = (rate, Gouy rate):
    rate_k A x + gouy_k C x (see `generator_parts`), with the rotation
    gouy_k turn tabulated per node (in Python lists: indexing them costs less
    than indexing arrays)."""
    rates, turns = list(table[:, 0]), list(table[:, 1:] * turn)
    return lambda k, x: rates[k] * (operator @ x) + turns[k] * x[partner]


def _step_product(operator, turn, partner, table: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """P_{S-1} ... P_0 x over the S = len(table) // 2 steps on the node rows
    `table`: x <- P_s x is `rk4_step` on x' = A_k x, A_k = table[k] @ (A, C),
    so P_s = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A_2s,
    K2 = A_2s+1 (I + h/2 K1), K3 = A_2s+1 (I + h/2 K2), K4 = A_2s+2 (I + h K3).
    The dense (A, C) is built once; the step matrices of STEP_CHUNK steps are
    formed at once, multiplied pairwise and applied to x."""
    size, steps = len(turn), len(table) // 2
    stack = np.stack([operator, np.eye(size)[partner] * turn[:, None]]).reshape(2, -1)
    for start in range(0, steps, STEP_CHUNK):
        a = (table[2 * start : 2 * min(start + STEP_CHUNK, steps) + 1] @ stack).reshape(-1, size, size)
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
        x = total[0] @ x
    return x


def _rate_nodes(profile, geom, steps: int) -> tuple:
    """(z, coupling rate) on the nodes of a `steps`-step RK4 run."""
    z, cn2 = rk4_nodes(profile, geom, steps)
    return z, COUPLING_PREFACTOR * l_strength(z, cn2, geom.wavelength, geom.waist)


def _check_stable(profile, geom, config, steps: int, rates: np.ndarray, deltas) -> None:
    """Refuse a run in which h * max rate * rho(A) of an occupied sector
    (`deltas`) exceeds RK4_REAL_LIMIT.  The row-sum norm of A bounds rho(A)
    from above, so a sector within the limit on that bound needs no
    eigenvalues.  The Gouy rotation is left out of the figure."""
    h_rate = geom.path_length / steps * float(rates.max())
    radius = 0.0
    for delta in deltas:
        operator = generator_parts(config.cutoff, delta)[0][config.scheme]
        if h_rate * np.linalg.norm(operator, np.inf) > RK4_REAL_LIMIT:
            radius = max(radius, _spectral_radius(config.cutoff, delta, config.scheme))
    if h_rate * radius <= RK4_REAL_LIMIT:
        return
    # the peak rate may move with the node grid: check the estimate on its own
    needed = math.ceil(steps * h_rate * radius / RK4_REAL_LIMIT)
    while geom.path_length / needed * _rate_nodes(profile, geom, needed)[1].max() * radius > RK4_REAL_LIMIT:
        needed += 1
    raise ValueError(
        f"steps = {steps} is unstable for fixed-step RK4: h * max rate * rho(A) ="
        f" {h_rate * radius:.2f} exceeds {RK4_REAL_LIMIT}; use steps >= {needed}"
    )


def _propagate_fixed(rho0, profile, geom, config, steps):
    # occupied sectors with delta >= 0; only sector 0 holds its own adjoint
    cutoff, side = config.cutoff, config.cutoff + 1
    rho, shape = np.zeros(rho0.matrix.shape, dtype=complex), (2 * cutoff + 1, side, 2 * cutoff + 1, side)
    blocks_in, blocks_out = rho0.matrix.reshape(shape), rho.reshape(shape)
    h, z_r = geom.path_length / steps, geom.rayleigh_range
    z, rates = _rate_nodes(profile, geom, steps)
    table = np.column_stack([rates, z_r / (z_r * z_r + z * z)])
    sectors = {}
    for delta in range(2 * cutoff + 1):
        lo_row, lo_col, count = sector_blocks(cutoff, delta)
        p = np.arange(count)
        state = blocks_in[lo_row + p, :, lo_col + p, :]
        if np.any(state):
            sectors[delta] = (lo_row + p, lo_col + p, state)
    _check_stable(profile, geom, config, steps, rates, sectors)
    for delta, (rows, cols, state) in sectors.items():
        count = len(rows)
        x, (operators, turn, partner) = _coordinates(state, delta == 0), generator_parts(cutoff, delta)
        if len(x) <= STEP_MATRIX_SIZE:
            x = _step_product(operators[config.scheme], turn, partner, table, h, x)
        else:
            derivative = _derivative(operators[config.scheme], turn, partner, table)
            for step in range(steps):
                x = rk4_step(derivative, 2 * step, x, h)
        state = _blocks(x, count, side, delta == 0)
        blocks_out[rows, :, cols, :] = state
        blocks_out[cols, :, rows, :] = state.conj().transpose(0, 2, 1)
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
    by construction).  A step count with h * max rate * rho(A) above
    RK4_REAL_LIMIT in an occupied sector is refused up front (ValueError,
    naming the smallest step count that meets it).  With check_convergence
    set, the run is repeated at half the step size and the traces must agree
    to 1e-8.
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
    extinction_per_km: float = 0.0,
) -> float:
    """Pure-decay survival probability exp(-54.1 * int l dz) times extinction.

    Exact for the single-mode truncation; the weak-turbulence limit of the
    full propagation.
    """
    exponent = DECAY_CONSTANT * integrated_l(profile, geom)
    return math.exp(-exponent - extinction_depth(extinction_per_km, geom.path_length))


def cutoff_bracketing(l_values, cutoffs) -> dict:
    """Fundamental-mode population against the path-integrated decay density.

    Evaluated in the short-distance regime (t = z/z_R -> 0) where the
    generator is proportional to l(z) and the population depends on
    l_I = int l dz alone; this is the collapse that puts both truncation
    families on a single axis.  Each population is the fundamental entry
    of exp(l A), A the scheme's sector-0 operator at t = 0, from A's
    eigendecomposition.  Returns {(scheme, cutoff): array over l_values}.
    """
    l_values = np.asarray(l_values, dtype=float)
    if len(l_values) == 0 or np.any(l_values < 0) or np.any(np.diff(l_values) <= 0):
        raise ValueError("l_values must be nonempty, nonnegative and increasing")
    results = {}
    for cutoff in cutoffs:
        # sector 0 only; the fundamental is the first coordinate of the l = 0 block
        fundamental = cutoff * (cutoff + 1) ** 2
        for scheme, operator in generator_parts(cutoff, 0)[0].items():
            # x(l) = V exp(l Lambda) V^-1 e_f; A is self-adjoint in the
            # Hilbert-Schmidt metric, so its spectrum is real and V well conditioned
            rates, vectors = np.linalg.eig(COUPLING_PREFACTOR * operator)
            weights = vectors[fundamental] * np.linalg.solve(vectors, np.eye(1, len(vectors), fundamental)[0])
            results[(scheme, cutoff)] = (np.exp(np.multiply.outer(l_values, rates)) @ weights).real
    return results


def distance_sweep(
    cn2_values,
    distances,
    wavelength: float,
    transmitter_height: float = 19.0,
    receiver_height: float = 19.0,
    extinction_per_km: float = 0.0,
) -> list:
    """Pure-decay link budget over a distance grid for a family of C_n^2 values.

    Each distance z gets the probability-optimal waist 0.75 sqrt(lambda z / pi).
    Returns a list of row dicts sorted by (cn2, distance).
    """
    rows = []
    for cn2 in sorted(cn2_values):
        profile = TurbulenceProfile.from_constant(cn2)
        for distance in sorted(distances):
            waist = 0.75 * math.sqrt(wavelength * distance / math.pi)
            geom = LinkGeometry(
                path_length=distance,
                transmitter_height=transmitter_height,
                receiver_height=receiver_height,
                waist=waist,
                wavelength=wavelength,
            )
            l_integral = integrated_l(profile, geom)
            extinction = extinction_depth(extinction_per_km, distance)
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
