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
Isotropic turbulence keeps the reflection l -> -l, which reverses sector 0's
l-blocks: its even half of (cutoff + 1)^3 coordinates and its odd half are
solved apart, and a fundamental input, which leaves the odd half empty, is
stepped on the even half alone.
The coordinates are isometric, so every A is symmetric, and one cached
eigendecomposition per sector (or half) and scheme (`sector_spectrum`, the
module's one cache of operators) serves `propagate` and `cutoff_bracketing`,
which freezes the generator at t = 0 (A alone) and takes the fundamental
entry of exp(l A).  `propagate` takes Lawson's exponential RK4 steps:
classical RK4 on the variable that e^(-A int rate) takes out of x, so that
the stiff rate(z) A part is exact, every factor is at most 1 at any step
size, and only the Gouy part, which is not stiff, is stepped.  The one
stepper serves `cross_frequency_elements` too: `_lawson_factors` writes
the coefficients of a chunk of steps (`_step_chunks`) and `_lawson_loop`
steps any state through an operator callback (a small sector multiplies its
step maps instead, `_step_product`).  The cache entry holds what depends
only on (cutoff, Delta, scheme) in those steps (`_stepping`): each stepped
block of the rotation, C-contiguous, and a small one's step-map operands.

`cross_frequency_elements`, the full-IPE kernel of `temporal`, carries each
|omega1><omega2| coherence of a list of frequency pairs over sector 0 and
reads off the fundamental-fundamental element.  The fundamental is even
under the reflection, so only the even half, the (cutoff + 1)^3 entries of
the l-blocks l <= 0, is carried.  With d the diagonal phases of the coupling
(`lgmodes.pair_coupling_blocks`), y = d x obeys y' = rate G(z) y + i Phi'(z) y:
G the real two-carrier block, Phi' = N_m z_R1 / (z_R1^2 + z^2) -
N_n z_R2 / (z_R2^2 + z^2) the carriers' Gouy rates.  Every pair advances in
one batched state by the Lawson steps above (per-pair rates, Gouy rate 1)
around A0, the block at one wavelength: in A0's eigenbasis rate A0 is exact,
and only rate (G - A0) + i Phi', a few percent of it, is stepped, so any
step count is stable.  G depends on a node and pair only through carrier 1's
beam-area ratio, so the blocks of a chunk of successive nodes are one GEMM
of `lgmodes.even_ratio_interpolant` (6 cutoff + 1 blocks built per call).
At omega1 = omega2 the ratio is 1, G = A0 bit for bit and the steps are
`propagate`'s.  The element is complex: its phase is the carriers'
dispersion, and `temporal.channel_kernel` keeps the real part while that
phase stays a perturbation.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .lgmodes import LGIndex, ModeBasis, even_ratio_interpolant, sector_blocks, sector_coupling, sector_orders
from .turbulence import COUPLING_PREFACTOR, DECAY_CONSTANT, LinkGeometry, TurbulenceProfile, _check_index, _check_member
from .turbulence import _positive_finite, cn2_at, extinction_depth, integrated_l, l_cross, l_strength
from .turbulence import normalized_distance, two_pi_c_over

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-9
# only rounding can lift the trace above 1: the exact truncation loses trace
# and each step of the Lindblad form conserves it; a loose bound
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
        _check_index("steps", self.steps)
        _check_index("cutoff", self.cutoff)
        if self.steps < 16:
            raise ValueError("step count must be >= 16")
        _check_member("scheme", self.scheme, PropagationScheme)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix over a ModeBasis, trace <= 1."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        size = self.basis.size
        if not isinstance(self.matrix, np.ndarray):
            raise ValueError(f"matrix must be a numpy array, got {type(self.matrix).__name__}")
        if self.matrix.shape != (size, size):
            raise ValueError("matrix shape does not match basis size")
        deviation = abs(self.matrix - self.matrix.conj().T).max()
        if not deviation <= HERMITICITY_TOL:  # NaN fails
            raise ValueError(f"matrix not Hermitian (deviation {deviation:.2e})")
        trace = float(self.matrix.trace().real)
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


# up to this many coordinates `propagate` forms a sector's step maps at once
# (`_step_product`) instead of stepping (`_lawson_loop`): the maps cost m^3
# per step, the loop a nearly fixed call overhead
STEP_MATRIX_SIZE = 24
# the step coefficients are written for at most 256 steps at a time, fewer
# where they would pass this many entries (`_step_chunks`)
STEP_ENTRIES = 2**17
# the full-IPE kernel interpolates the coupling blocks of as many successive
# nodes as hold this many entries (at least one node) in one GEMM; grid 4-12
# kernels at cutoffs 1-4 ran as fast from 2**15 to 2**18, and g = 4,
# cutoff 1 took 1.8x as long at 2**12
FULL_IPE_BLOCK_ENTRIES = 2**16


@lru_cache(maxsize=64)
def _layout(side: int, hermitian: bool, count: int) -> tuple:
    """(k, w), each (T, m): coordinate i of `count` l-blocks of row-major
    entries e is Re(sum_t w[t, i] e[k[t, i]]).  A Hermitian block holds
    side^2 reals (T = 2: its diagonal, then sqrt(2) Re and sqrt(2) Im of its
    strict upper triangle, read from its Hermitian part), any other Re, then
    Im, of each entry.  The coordinates are isometric (Hilbert-Schmidt), so
    the unit vector of coordinate j has the entries conj(w[:, j]) at k[:, j]."""
    flat, (a, b) = np.arange(side * side), np.triu_indices(side, 1)
    if hermitian:
        diag, upper, lower = flat[:: side + 1], a * side + b, b * side + a
        one, half = np.ones(side), np.full(len(a), math.sqrt(0.5))
        k = [np.concatenate([diag, upper, upper]), np.concatenate([diag, lower, lower])]
        w = [np.concatenate([one, half, -1j * half]), np.concatenate([0 * one, half, 1j * half])]
    else:
        k, w = [np.tile(flat, 2)], [np.repeat([1, -1j], side * side)]
    k = np.concatenate([np.stack(k) + p * side * side for p in range(count)], axis=1)
    return k, np.tile(np.stack(w), count)


def _real_form(op: np.ndarray, layout: tuple) -> np.ndarray:
    """The real matrix, by index gathering, of the complex-linear map `op`
    (its last two axes act on row-major entries) in the coordinates `layout`."""
    k, w = layout
    pairs = np.ndindex(len(k), len(k))
    return sum((w[a][:, None] * op[..., k[a][:, None], k[b]] * np.conj(w[b])).real for a, b in pairs)


def _coordinates(blocks: np.ndarray, hermitian: bool) -> np.ndarray:
    """Real coordinates of a (count, side, side) stack of l-blocks."""
    k, w = _layout(blocks.shape[-1], hermitian, len(blocks))
    return (w * blocks.reshape(-1)[k]).sum(axis=0).real


def _blocks(x: np.ndarray, count: int, side: int, hermitian: bool) -> np.ndarray:
    """The (count, side, side) stack of l-blocks with real coordinates x."""
    k, w = _layout(side, hermitian, count)
    entries = np.zeros(count * side * side, dtype=complex)
    np.add.at(entries, k, np.conj(w) * x)
    return entries.reshape(count, side, side)


def generator_parts(cutoff: int, delta: int, scheme: PropagationScheme) -> tuple:
    """(A, C): one Delta-l sector's real coordinates (`_layout`) obey
    x' = rate(z) A x + gouy(z) C x.  A is the gain for TRUNCATED_EXACT (the
    `lgmodes.sector_coupling` block at t = 0; its scalar total-rate loss
    cancels against the gain's diagonal, so it is outer-scale free), and
    gain - B / 2 for LINDBLAD_TRUNCATED, with B: rho -> Q rho + rho Q,
    Q = Gamma0^T, Hermitian.  Both are self-adjoint, so A is symmetric.
    C, the Gouy commutator i(N_m - N_n) (`lgmodes.sector_orders`), turns each
    (Re, Im) pair and is 0 on sector 0's diagonal."""
    _check_member("scheme", scheme, PropagationScheme)
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    side, sq = cutoff + 1, (cutoff + 1) ** 2
    gain = _real_form(sector_coupling(cutoff, delta, 0.0), _layout(side, delta == 0, count))
    # per l-block on its row-major entries, in real coordinates, then block-diagonal
    # in the sector: the Gouy commutator and the Lindblad form's rho -> Q rho + rho Q
    local = [np.eye(sq) * 1j * np.subtract(*sector_orders(cutoff, delta)).reshape(count, 1, sq)]
    if scheme is PropagationScheme.LINDBLAD_TRUNCATED:
        # Q(0) per l-block: Gamma0[u, v] = sum_n T[n, u, n, v] runs over sector 0's diagonal
        q0 = np.einsum("qabpmm->qba", sector_coupling(cutoff, 0, 0.0).reshape((2 * cutoff + 1, side, side) * 2))
        row, col, eye = q0[lo_row : lo_row + count], np.conj(q0[lo_col : lo_col + count]), np.eye(side)
        local.append((np.einsum("pac,be->pabce", row, eye) + np.einsum("ac,pbe->pabce", eye, col)).reshape(-1, sq, sq))
    local = _real_form(np.stack(local), _layout(side, delta == 0, 1))
    p, ops = np.arange(count), np.zeros((len(local), count, local.shape[-1], count, local.shape[-1]))
    ops[:, p, :, p, :] = local.transpose(1, 0, 2, 3)
    rotation, *bracket = ops.reshape(len(local), len(gain), len(gain))
    return (gain - 0.5 * bracket[0] if bracket else gain), rotation


@lru_cache(maxsize=64, typed=True)  # typed: True and 1.0 reach `generator_parts`, not cutoff 1's entry
def sector_spectrum(cutoff: int, delta: int, scheme: PropagationScheme) -> tuple:
    """(values, vectors, rotation, stepping), read-only: A = V diag(values) V^T
    for a sector's operator A (`generator_parts`), V = vectors orthogonal, the
    Gouy commutator in that basis, V^T C V, and the operands `propagate`
    steps it with (`_stepping`).  No eigenvalue lies above 0
    beyond rounding, so exp(l A) contracts for every l >= 0.  Sector 0's
    reflection-even and odd halves are solved apart, the (cutoff + 1)^3 even
    columns first, so the rotation is block-diagonal: C keeps the reflection
    exactly, and the coupling-sum rounding by which A breaks it (1e-14 of
    max |A| at cutoff 4) is dropped."""
    operator, commutator = generator_parts(cutoff, delta, scheme)
    size = len(operator)
    split = (cutoff + 1) ** 3 if delta == 0 else size
    if delta == 0:
        # the symmetric orthogonal Q that splits sector 0: coordinate j of Q x is
        # (x_j + x_mirror) / sqrt 2 for l < 0, x_j for l = 0, (x_mirror - x_j) / sqrt 2 for l > 0
        j, block = np.arange(size), (cutoff + 1) ** 2
        sign = np.sign(cutoff - j // block)[:, None]  # -sign(l)
        mirror = j + 2 * block * (cutoff - j // block)
        own, other = np.where(sign == 0, 1.0, sign * math.sqrt(0.5)), abs(sign) * math.sqrt(0.5)

        def reflect(x):  # Q x
            return own * x + other * x[mirror]

        operator, commutator = (reflect(reflect(x.T).T) for x in (operator, commutator))
    values, vectors, rotation = np.zeros(size), np.zeros((size, size)), np.zeros((size, size))
    for part in (slice(0, split), slice(split, size)):
        values[part], vectors[part, part] = np.linalg.eigh(operator[part, part])
        rotation[part, part] = vectors[part, part].T @ (commutator[part, part] @ vectors[part, part])
    if delta == 0:
        vectors = reflect(vectors)
    for array in (values, vectors, rotation):
        array.setflags(write=False)
    return values, vectors, rotation, _stepping(rotation, sorted({split, size}))


def _stepping(rotation: np.ndarray, sizes) -> tuple:
    """(block, pick, turned), read-only, for each size in `sizes`: the
    leading block of `rotation` of that size, C-contiguous, and the operands
    of its step maps (`_step_product`), None past STEP_MATRIX_SIZE
    coordinates."""
    out = []
    for m in sizes:
        block, pick, turned = np.ascontiguousarray(rotation[:m, :m]), None, None
        if m <= STEP_MATRIX_SIZE:
            pick = np.zeros((m, m, 2, m))  # pick[(i, k), (0, i)] = 1 and pick[(i, k), (1, i)] = R[i, k]
            pick[range(m), range(m), 0, range(m)] = 1.0
            pick[range(m), :, 1, range(m)] = block
            pick, turned = pick.reshape(m * m, 2 * m), (block @ pick.reshape(m, -1)).reshape(m * m, 2 * m)
            pick.flags.writeable = turned.flags.writeable = False
        block.flags.writeable = False
        out.append((block, pick, turned))
    return tuple(out)


def rk4_nodes(profile: TurbulenceProfile, geom: LinkGeometry, steps: int) -> tuple:
    """(z, C_n^2) on the nodes z_k = k L / (2 steps), k = 0 ... 2 steps, of a
    fixed-step run over the link: step s starts at node 2s and has its
    midpoint at node 2s + 1.  The last node is exactly L."""
    _check_index("steps", steps)
    z = _nodes(geom.path_length, steps)
    return z, np.broadcast_to(cn2_at(profile, geom, z), z.shape)


def _nodes(length: float, steps: int) -> np.ndarray:
    """np.linspace(0, length, 2 steps + 1) bit for bit, without its set-up calls."""
    z = np.arange(2 * steps + 1) * (length / (2 * steps))
    z[-1] = length
    return z


_workspace = threading.local()


def _buffer(name: str, shape: tuple) -> np.ndarray:
    """An array of `shape` from this thread's buffer `name`, kept between
    calls: fresh arrays this large page-fault in again whenever the
    allocator has handed the last ones back to the OS."""
    size = math.prod(shape)
    if getattr(_workspace, name, np.empty(0)).size < size:
        setattr(_workspace, name, np.empty(size))
    return getattr(_workspace, name)[:size].reshape(shape)


def _step_chunks(steps: int, row: int) -> list:
    """The node slices of a run's successive chunks of steps: 256 steps, or as
    many (at least one) as keep 7 coefficient rows of `row` within STEP_ENTRIES."""
    size = max(1, min(256, STEP_ENTRIES // (7 * row)))
    return [slice(2 * s, 2 * (s + size) + 1) for s in range(0, steps, size)]


def _lawson_factors(rates: np.ndarray, gouy, h: float, values: np.ndarray, step_major: bool) -> tuple:
    """(coefficients, halves) on the nodes of `rates` (a column per pair, or
    none) and `gouy` (a node column, or a constant) for A's eigenvalues
    `values`: row s of coefficients is step s's (a, b, e, f, d, c, j), each
    of shape rates.shape[1:] + values.shape, in a buffer, step-major or
    step-last, that the next call overwrites.  With ea, eb and e1 = ea eb the
    factors e^(R values) of a step's halves and whole (R the rate integrated
    over each half by the quadratic through the step's three nodes) and g0,
    g1, g2 the Gouy rates on those nodes, they are (g1 ea, h/2 g0 g1 ea, e1,
    h/6 g0 e1, h^2/6 g2 eb, h/6 g2 e1, h/3 eb); halves[s] = h/2 g1."""
    ends, middle = 5 * rates[::2], 8 * rates[1::2]  # 5 r0 and 5 r2, 8 r1 of every step
    integrals = h / 24 * (ends[:-1] + middle - rates[2::2]), h / 24 * (ends[1:] + middle - rates[:-1:2])
    n, row = len(middle), middle.shape[1:] + values.shape
    buffer = _buffer("factors", (n, 7) + row if step_major else (7,) + row + (n,))
    out = buffer if step_major else buffer.transpose(-1, *range(len(row) + 1))  # [step, coefficient, row]
    a, b, e, f, d, c, j = out.transpose(*range(1, len(row) + 2), 0)  # step last: per-step values broadcast
    gouy = gouy if isinstance(gouy, np.ndarray) else np.full(len(rates), gouy)
    g0, g1, g2 = gouy[:-1:2], gouy[1::2], gouy[2::2]
    for factor, integral in zip((a, d), integrals):
        integral = integral.T.reshape(middle.shape[1:] + (1,) * values.ndim + (n,))
        np.exp(np.multiply(values[..., None], integral, out=factor), out=factor)
    np.multiply(a, d, out=e)
    np.multiply(e, h / 6 * g2, out=c)
    np.multiply(e, h / 6 * g0, out=f)
    np.multiply(d, h / 3, out=j)
    d *= h * h / 6 * g2
    a *= g1
    np.multiply(a, 0.5 * h * g0, out=b)
    return out, 0.5 * h * g1


def _lawson_loop(apply, u: np.ndarray, factors: tuple) -> np.ndarray:
    """Lawson RK4 steps of u in A's eigenbasis (see the module docstring):
    apply(node, x, out) writes the stepped part of the derivative at a node,
    N_node x, into `out`, and step s reads nodes 2s, 2s + 1, 2s + 1 and 2s + 2.
    Per step, with p = N_2s u and the coefficients of `_lawson_factors`,
    k2 = N_2s+1 (a u + b p), k3 = N_2s+1 (a u + half k2),
    k4 = N_2s+2 (c u + d k3) and u <- e u + f p + j (k2 + k3) + k4.  Each
    stage is a row of this thread's buffer, u between k3 and p, so that (a u,
    b p), (c u, d k3) and (e u, f p) are one product each; the result is a
    view of it."""
    (coefficients, halves), stages = factors, _buffer("stages", (12,) + u.shape)
    k3, x, p, k2, k4, y, au, bp, eu, fp, dk3, cu = stages
    k3_u, u_p, ab_p, ef_p, dc_p = stages[0:2], stages[1:3], stages[6:8], stages[8:10], stages[10:12]
    add, multiply = np.add, np.multiply  # the loop is call-bound: local names, positional `out`
    x[:] = u
    rows = (coefficients[:, part] for part in np.s_[0:2, 2:4, 4:6, 6])
    for node, ab, ef, dc, j, half in zip(range(0, 2 * len(halves), 2), *rows, halves):
        apply(node, x, p)
        multiply(ab, u_p, ab_p)
        apply(node + 1, add(au, bp, y), k2)
        apply(node + 1, add(au, multiply(k2, half, y), y), k3)
        multiply(dc, k3_u, dc_p)
        apply(node + 2, add(cu, dk3, y), k4)
        multiply(ef, u_p, ef_p)
        add(add(add(eu, fp, y), multiply(j, add(k2, k3, k2), k2), y), k4, x)
    return x


def _step_product(operands: tuple, u: np.ndarray, factors: tuple) -> np.ndarray:
    """`_lawson_loop` as the product of its step maps, formed at once and
    multiplied pairwise: with (R, pick, turned) = operands (`_stepping`),
    P_s = diag(e) + diag(f) R + diag(j) (K2 + K3) + K4, K2 = R (diag(a) + diag(b) R),
    K3 = R (diag(a) + half K2) and K4 = R (diag(c) + diag(d) K3).  The maps
    are built with the step index last, so that each product by R, and each
    diag(x) + diag(y) R (as `pick` [x; y], and R pick = turned), is one
    matrix product."""
    rotation, pick, turned = operands
    (a, _, _, _, d, c, j), half = factors[0].transpose(1, 2, 0), factors[1]  # each [i, step]
    m, n = len(u), len(half)
    y, k2, k3, k4 = _buffer("maps", (4, m, m, n))
    y_rows, k3_rows, k4_rows = (x.reshape(m, m * n) for x in (y, k3, k4))  # [i, (k, step)]
    y_flat, k2_flat = y.reshape(m * m, n), k2.reshape(m * m, n)  # [(i, k), step]
    diagonal = y_flat[:: m + 1]
    np.matmul(turned, factors[0][:, :2].reshape(n, 2 * m).T, out=k2_flat)  # K2, from [a; b]
    np.multiply(k2, half, out=y)
    np.add(diagonal, a, out=diagonal)  # Y3
    np.matmul(rotation, y_rows, out=k3_rows)
    np.multiply(k3, d[:, None], out=y)
    np.add(diagonal, c, out=diagonal)  # Y4
    np.matmul(rotation, y_rows, out=k4_rows)
    k2 += k3
    k2 *= j[:, None]
    k2 += k4
    np.matmul(pick, factors[0][:, 2:4].reshape(n, 2 * m).T, out=y_flat)  # diag(e) + diag(f) R, from [e; f]
    k2 += y
    # the maps step first, their products ping-ponging between two buffers
    total, spare = k3.reshape(n, m, m), k4.reshape(n, m, m)
    np.copyto(total, k2.transpose(2, 0, 1))
    while len(total) > 1:
        pairs, odd = divmod(len(total), 2)
        np.matmul(total[1 : 2 * pairs : 2], total[: 2 * pairs : 2], out=spare[:pairs])
        if odd:
            spare[pairs] = total[-1]
        total, spare = spare[: pairs + odd], total
    return total[0] @ u


def _propagate_fixed(rho0, profile, geom, config, steps):
    # occupied sectors with delta >= 0; only sector 0 holds its own adjoint
    cutoff, side = config.cutoff, config.cutoff + 1
    rho, shape = np.zeros(rho0.matrix.shape, dtype=complex), (2 * cutoff + 1, side, 2 * cutoff + 1, side)
    blocks_in, blocks_out = rho0.matrix.reshape(shape), rho.reshape(shape)
    h, z_r, z = geom.path_length / steps, geom.rayleigh_range, _nodes(geom.path_length, steps)
    rates = COUPLING_PREFACTOR * l_strength(z, cn2_at(profile, geom, z), geom.wavelength, geom.waist)
    gouy = z_r / (z_r * z_r + z * z)
    # the Delta-l sectors that hold an entry: l-block row - column of the occupied block pairs
    occupied = set(np.subtract(*np.nonzero(blocks_in.any(axis=(1, 3)))).tolist())
    for delta in range(2 * cutoff + 1):
        if delta not in occupied:
            continue
        lo_row, lo_col, count = sector_blocks(cutoff, delta)
        rows, cols = np.arange(lo_row, lo_row + count), np.arange(lo_col, lo_col + count)
        values, vectors, _, stepping = sector_spectrum(cutoff, delta, config.scheme)
        u = _coordinates(blocks_in[rows, :, cols, :], delta == 0) @ vectors
        # the rotation never mixes sector 0's halves, so an empty odd half
        # (a fundamental input's) stays 0 and only the even half is stepped
        operands = stepping[bool(u[len(stepping[0][0]) :].any())]
        part = slice(0, len(operands[0]))
        # the loop reads a step's coefficients as one block, the maps a row of steps each;
        # the loop's operator is the rotation block at every node
        loop, rotate = part.stop > STEP_MATRIX_SIZE, lambda node, x, out, r=operands[0], dot=np.dot: dot(r, x, out)
        for nodes in _step_chunks(steps, part.stop):
            factors = _lawson_factors(rates[nodes], gouy[nodes], h, values[part], step_major=loop)
            u[part] = _lawson_loop(rotate, u[part], factors) if loop else _step_product(operands, u[part], factors)
        state = _blocks(vectors @ u, count, side, delta == 0)
        if delta:  # sector 0 is written once, as its own adjoint
            blocks_out[rows, :, cols, :] = state
        blocks_out[cols, :, rows, :] = state.conj().transpose(0, 2, 1)
    # undo the rotating-frame (Gouy) gauge at the receiver plane (N on sector 0's r_n = 0 entries)
    orders = sector_orders(cutoff, 0)[0][::side]
    return np.exp(-1j * math.atan2(geom.path_length, z_r) * (orders[:, None] - orders[None, :])) * rho


def propagate(
    rho0: DensityMatrix,
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    config: SolverConfig,
) -> DensityMatrix:
    """Integrate the density matrix from the transmitter to z_f.

    Fixed-step Lawson RK4 in the rotating frame, one occupied Delta-l sector
    at a time on its real coordinates (sector 0 is Hermitian by
    construction); any step count is stable.  With check_convergence set,
    the run is repeated at half the step size and the traces must agree to
    1e-8.
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


def cross_frequency_elements(omega1, omega2, profile, geom, cutoff: int, steps: int) -> np.ndarray:
    """Complex fundamental-to-fundamental element of the |omega1><omega2|
    coherence of every frequency pair (omega1[i], omega2[i]), all advanced
    together on the reflection-even half of sector 0 of the truncated LG
    basis by Lawson RK4 steps around A0 (see the module docstring)."""
    side, h = cutoff + 1, geom.path_length / steps
    z, cn2 = rk4_nodes(profile, geom, steps)
    # per node (rows) and pair (columns), the two carriers on a leading axis
    rate = COUPLING_PREFACTOR * l_cross(z[:, None], omega1, omega2, cn2[:, None], geom.waist)
    per_range = normalized_distance(1.0, two_pi_c_over(np.stack([omega1, omega2])), geom.waist)[:, None, :]
    area = 1.0 + (z[:, None] * per_range) ** 2  # a_i / w0^2
    ratio, gouy = area[0] / (0.5 * (area[0] + area[1])), per_range / area  # gouy: z_R / (z_R^2 + z^2)
    # the fundamental is reflection-even, and so is every derivative of an
    # even state, so only the l <= 0 blocks are carried; they depend on a
    # node and pair through carrier 1's ratio alone, and the blocks of
    # `chunk` successive nodes are interpolated in one call
    pairs, size = len(omega1), side**3
    chunk = max(1, FULL_IPE_BLOCK_ENTRIES // (pairs * size * size))
    interpolate = even_ratio_interpolant(cutoff, float(np.max(np.abs(ratio - 1.0))))
    n_row, n_col = (n[:size] for n in sector_orders(cutoff, 0))
    # A0, the block at one wavelength (ratio 1), acts on the l <= 0 blocks
    # with each mirror column block added: D A0 D^-1 is symmetric for
    # D = sqrt 2 on the l < 0 blocks and 1 on l = 0, so A0 = V diag(values)
    # V^-1 with V = D^-1 U and V^-1 = U^T D
    a0 = interpolate(np.ones(1))[0].T
    scale = np.where(np.arange(size) < cutoff * side * side, math.sqrt(2.0), 1.0)
    values, vectors = np.linalg.eigh(scale[:, None] * a0 / scale)
    forward, backward = (vectors / scale[:, None]).T.copy(), scale[:, None] * vectors  # V^T, V^-T

    # each step reads its nodes in order, and its midpoint twice, so a
    # one-entry memo builds every chunk once
    @lru_cache(maxsize=1)
    def generator(start):
        generator.cache_clear()  # the last chunk is let go before the next is built
        nodes = slice(start, start + chunk)
        coupling = interpolate(ratio[nodes].ravel()).reshape(-1, pairs, size, size)
        spin = gouy[0, nodes, :, None] * n_row - gouy[1, nodes, :, None] * n_col  # Phi'
        return coupling, np.stack([-spin, spin], axis=2)

    def stage(k, u, out):
        """out = V^-1 [rate (G - A0) + i Phi'] V u at node k, u each pair's
        eigencoordinates as two real rows (Re, Im)."""
        coupling, spin = generator(k - k % chunk)
        pair_rate = rate[k, :, None, None]
        y = (u.reshape(-1, size) @ forward).reshape(u.shape)
        w = np.matmul(y, coupling[k % chunk])
        w *= pair_rate
        w += y[:, ::-1] * spin[k % chunk]  # i Phi' (a + ib) = -Phi' b + i Phi' a
        np.matmul(w.reshape(-1, size), backward, out=out.reshape(-1, size))
        out -= pair_rate * values * u

    # d and D are 1 on the fundamental (N = 0, l = 0): u starts as V^-1 e_f,
    # row f of U, and the element is (V u)_f = U[f] . u
    fundamental = cutoff * side * side  # r = 0 of the l = 0 block
    u = np.zeros((pairs, 2, size))
    u[:, 0] = vectors[fundamental]
    for nodes in _step_chunks(steps, pairs * size):
        factors = _lawson_factors(rate[nodes], 1.0, h, values[None], step_major=True)
        u = _lawson_loop(lambda k, x, out, first=nodes.start: stage(first + k, x, out), u, factors)
    element = u @ vectors[fundamental]
    return element[:, 0] + 1j * element[:, 1]


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
    # increasing from a first value >= 0 to a last one < inf; NaN fails every comparison
    if not (len(l_values) and 0 <= l_values[0] and l_values[-1] < math.inf and (np.diff(l_values) > 0).all()):
        raise ValueError("l_values must be nonempty, finite, nonnegative and increasing")
    results = {}
    for cutoff in cutoffs:
        for scheme in PropagationScheme:
            # x(l) = V exp(l Lambda) V^T e_f with V orthogonal; sector 0 only,
            # the fundamental the first coordinate of the l = 0 block
            values, vectors, *_ = sector_spectrum(cutoff, 0, scheme)
            rates, weights = COUPLING_PREFACTOR * values, vectors[cutoff * (cutoff + 1) ** 2] ** 2
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
    if not _positive_finite(wavelength):
        raise ValueError(f"wavelength must be positive and finite, not {wavelength!r}")
    if not _positive_finite(*distances):
        raise ValueError(f"distances must be positive and finite, not {distances!r}")
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
