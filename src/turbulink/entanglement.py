"""Entangled photon pairs through independent turbulent channels.

Each photon of a two-photon temporal-mode state rides its own copy of the
single-photon channel: frequency-basis amplitudes are damped by
P(omega1, omega2) P(omega1', omega2'), so the mode-basis map is the tensor
square of the one-photon channel tensor.  Entanglement is scored by the
negativity of the partial transpose and by overlap fidelity with the input.

`propagate_pair` takes any state: the pair map out[u, U, v, V] = sum
psi[m, n] conj(psi[p, q]) C[u, v, m, p] C[U, V, n, q] is contracted one
index pair at a time, psi over m, conj(psi) over p (two dim^5 tensordots),
then one (dim^2, dim^2) GEMM against C over (n, q) (dim^6), so no step costs
more than dim^6.  `log_negativity` and `fidelity_to_input` then read the
density.  The arithmetic takes the dtype of its inputs, with numpy's
promotion: a real state through a real kernel runs real GEMMs and a real
symmetric eigen-solve; a complex state or kernel promotes every step to
complex, at about twice the cost.

`robustness_scan` sends only the mode pairs (|f_m f_m> + |f_n f_n>)/sqrt(2),
and builds every row of a scan together from that structure: four
dim x dim blocks of the channel tensor per row give the transmitted mass,
the fidelity and the partial transpose, whose spectrum comes from its two
swap blocks (see `_partial_transpose_blocks`).  The general path above is
its test oracle.

Basis ordering for the pair density is first-photon-major: the matrix index
of |f_m> |f_n> is m * dim + n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .schmidt import BiphotonSpec
from .temporal import ChannelKernel
from .turbulence import _check_index

MAX_PAIR_MODES = 14


def _check_modes(dim: int, **modes):
    """Refuse a mode index that is not an int, or is a bool, as
    `turbulence._check_index` does, and one outside [0, dim)."""
    for name, value in modes.items():
        if not (isinstance(value, (int, np.integer)) and value < 0):  # a negative int is out of range
            _check_index(name, value)
        if not 0 <= value < dim:
            raise ValueError("mode index outside the basis dimension")


@dataclass(frozen=True)
class TwoPhotonState:
    """Pure two-photon state sum_{mn} psi[m, n] |f_m>|f_n>, unit norm.

    Any array-like is accepted and stored as an array: integer entries
    become float64, float and complex entries keep their dtype."""

    coefficients: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.coefficients)
        if not np.issubdtype(psi.dtype, np.inexact):
            psi = psi.astype(np.float64)
        object.__setattr__(self, "coefficients", psi)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError("coefficient matrix must be square")
        norm = float(np.sum(np.abs(psi) ** 2))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails
            raise ValueError(f"state norm^2 = {norm}, expected 1")

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def mode_pair(cls, m: int, n: int, dim: int) -> "TwoPhotonState":
        """(|f_m f_m> + |f_n f_n>) / sqrt(2), or the bare |f_m f_m> when
        m == n (the superposition degenerates to a product state)."""
        _check_modes(dim, m=m, n=n)
        psi = np.zeros((dim, dim))
        if m == n:
            psi[m, m] = 1.0
        else:
            psi[m, m] = 1.0 / math.sqrt(2.0)
            psi[n, n] = 1.0 / math.sqrt(2.0)
        return cls(coefficients=psi)


@dataclass(frozen=True)
class TwoPhotonDensity:
    """Hermitian density over the product mode basis (first-photon-major)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        size = self.dim * self.dim
        if not isinstance(self.matrix, np.ndarray):
            raise ValueError(f"matrix must be a numpy array, got {type(self.matrix).__name__}")
        if self.matrix.shape != (size, size):
            raise ValueError("matrix shape does not match mode dimension")
        deviation = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if not deviation <= 1e-10:  # NaN fails
            raise ValueError(f"pair density not Hermitian (deviation {deviation:.2e})")


def channel_tensor(kernel: ChannelKernel, dim: int) -> np.ndarray:
    """One-photon channel tensor C[u, v, m, n] = int int f_u f_m P f_n f_v.

    Maps |f_m><f_n| to sum_{uv} C[u, v, m, n] |f_u><f_v|; real symmetric in
    the sense C[u, v, m, n] = C[v, u, n, m].  A tensor with a NaN or
    infinite entry is refused with a ValueError, for every caller.
    """
    _check_index("dim", dim)
    if not dim:
        raise ValueError("dim must be at least 1, not 0")
    psi = kernel.mode_vectors(dim)  # (dim, grid)
    left = psi[:, None, :] * psi[None, :, :]  # (u, m, grid)
    grid = left.reshape(dim * dim, -1)
    block = grid @ kernel.matrix @ grid.T  # [(u,m), (n,v)]
    if not np.isfinite(block).all():
        raise ValueError("channel kernel is not finite (NaN or inf in the channel tensor)")
    return block.reshape(dim, dim, dim, dim).transpose(0, 3, 1, 2)


def _pair_density(psi: np.ndarray, tensor: np.ndarray) -> tuple:
    """Apply C (x) C to |psi><psi| and normalize; returns (density, mass)."""
    dim = psi.shape[0]
    if dim > MAX_PAIR_MODES:
        raise ValueError(f"pair propagation limited to {MAX_PAIR_MODES} modes")
    size = dim * dim
    half = np.tensordot(tensor, psi, axes=(2, 0))  # [u, v, p, n]
    half = np.tensordot(half, psi.conj(), axes=(2, 0))  # [u, v, n, q]; .conj() of real psi is psi
    out = half.reshape(size, size) @ tensor.reshape(size, size).T  # [(u, v), (U, V)]
    matrix = out.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(size, size)
    matrix = 0.5 * (matrix + matrix.conj().T)
    mass = float(np.trace(matrix).real)
    if not mass > 0.0:
        raise RuntimeError(f"pair fully absorbed (transmitted mass {mass:g})")
    return TwoPhotonDensity(dim=dim, matrix=matrix / mass), mass


def propagate_pair(state: TwoPhotonState, kernel: ChannelKernel, spec: BiphotonSpec) -> tuple:
    """Send both photons through independent copies of the channel.

    Returns (TwoPhotonDensity, transmitted_mass): the density is normalized
    and the mass is the pre-normalization trace (joint survival probability
    within the truncated mode space).  The map is contracted as two dim^5
    tensordots (psi over m, conj(psi) over p) and one dim^6 GEMM against the
    channel tensor over (n, q).  A real state through a real kernel gives
    a real density (real GEMMs, and a real symmetric eigen-solve in
    `log_negativity`); a complex state or kernel gives a complex one.
    """
    return _pair_density(state.coefficients, channel_tensor(kernel, state.dim))


def log_negativity(rho: TwoPhotonDensity) -> float:
    """E_N = log2(2 N + 1) with N the absolute sum of the negative
    eigenvalues of the partial transpose over the second photon.  That only
    permutes the entries of the Hermitian density, so `eigvalsh`, which reads
    one triangle, takes it as it is (TwoPhotonDensity is Hermitian to 1e-10)."""
    dim = rho.dim
    four = rho.matrix.reshape(dim, dim, dim, dim)  # [u, u', v, v']
    swapped = four.transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
    eigenvalues = np.linalg.eigvalsh(swapped)
    negativity = float(-eigenvalues[eigenvalues < 0.0].sum())
    return math.log2(2.0 * negativity + 1.0)


def fidelity_to_input(rho: TwoPhotonDensity, state: TwoPhotonState) -> float:
    """Overlap <psi| rho |psi> of the output density with the input state."""
    vec = state.coefficients.reshape(-1)
    value = complex(vec.conj() @ rho.matrix @ vec)
    return float(value.real)


@dataclass(frozen=True)
class RobustnessRow:
    n: int
    en_initial: float
    en_final: float
    fidelity: float
    degenerate: bool
    transmitted_mass: float


@lru_cache(maxsize=MAX_PAIR_MODES)
def _swap_gather(dim: int) -> tuple:
    """Read-only flat indices into P[(u, v), (V, U)] = X[(u, U), (v, V)],
    X = rho^{T_B}, of the two terms of the symmetric block: X[p, q]
    ("direct") and X[p, swap q] ("crossed"), each (pairs, pairs) over the
    pairs p = (p1 <= p2) of the symmetric basis, the off-diagonal pairs
    (p1 < p2, which also span the antisymmetric block) first."""
    upper = np.triu_indices(dim, 1)
    first = np.concatenate([upper[0], np.arange(dim)])
    second = np.concatenate([upper[1], np.arange(dim)])
    p1, p2, q1, q2 = first[:, None], second[:, None], first, second
    direct = ((p1 * dim + q1) * dim + q2) * dim + p2
    crossed = ((p1 * dim + q2) * dim + q1) * dim + p2
    direct.flags.writeable = crossed.flags.writeable = False
    return direct, crossed


def _partial_transpose_blocks(blocks: np.ndarray, coef: np.ndarray) -> list:
    """Stacks of Hermitian blocks whose spectra together are, row by row,
    the spectrum of the unnormalized partial transpose
    X = sum_ab coef[r, a, b] C_ab (x) C_ab^T, given blocks[r, a, b] = C_ab.

    X[(u, U), (v, V)] = P[(u, v), (V, U)] for the product
    P = sum_ab coef C_ab[u, v] C_ab[V, U], one (dim^2, 4) @ (4, dim^2) GEMM
    per row into one buffer: the blocks are gathered row by row, and no
    (rows, dim^4) stack of products is held.  For a
    real kernel X commutes with the photon swap S (C_ab^T = C_ba), so it is
    block-diagonal on the symmetric (dim (dim + 1) / 2) and antisymmetric
    (dim (dim - 1) / 2) subspaces, whose blocks are gathered from P (Peres,
    PRL 77, 1413 (1996); Vidal & Werner, PRA 65, 032314 (2002)).  For a
    complex Hermitian kernel S X S = conj(X): the blocks do not decouple,
    and the whole X is returned.
    """
    rows, dim = len(blocks), blocks.shape[-1]
    size = dim * dim
    factor = blocks.reshape(rows, 4, size)
    left = np.swapaxes(factor * coef.reshape(rows, 4, 1), 1, 2)
    product = np.empty((size, size), dtype=factor.dtype)
    if np.iscomplexobj(factor):
        whole = np.empty((rows, size, size), dtype=factor.dtype)
        for r in range(rows):
            np.matmul(left[r], factor[r], product)
            whole[r].reshape(4 * (dim,))[...] = product.reshape(4 * (dim,)).transpose(0, 3, 1, 2)
        return [whole]
    direct, crossed = _swap_gather(dim)
    pairs = len(direct)
    odd = pairs - dim
    symmetric, antisymmetric = np.empty((rows, pairs, pairs)), np.empty((rows, odd, odd))
    flat = product.reshape(-1)
    for r in range(rows):
        np.matmul(left[r], factor[r], product)
        straight, swapped = flat[direct], flat[crossed]
        np.add(straight, swapped, symmetric[r])
        np.subtract(straight[:odd, :odd], swapped[:odd, :odd], antisymmetric[r])
    # a diagonal pair's basis vector |p p> has one term, (|p1 p2> + |p2 p1>) / sqrt(2) two
    symmetric[:, odd:] *= math.sqrt(0.5)
    symmetric[:, :, odd:] *= math.sqrt(0.5)
    return [symmetric, antisymmetric]


def robustness_scan(
    kernel: ChannelKernel,
    spec: BiphotonSpec,
    fixed_mode: int,
    n_range,
    dim: int = 12,
) -> list:
    """Sweep the second mode of (|f_m f_m> + |f_n f_n>)/sqrt(2) over n.

    The n == fixed_mode row degenerates to the product state |f_m f_m>; it
    is reported with zero initial negativity and flagged rather than
    skipped.  With weights w_a (1/sqrt(2) each, or 1 and 0 on the degenerate
    row) and C_ab = C[:, :, a, b] for a, b in {m, n}, the output is
    sum_ab w_a w_b C_ab (x) C_ab: its mass is sum_ab w_a w_b (tr C_ab)^2, its
    overlap with the input comes from the same four blocks at (a, b), and
    its partial transpose from `_partial_transpose_blocks`.  All rows are
    computed together; the results equal those of `propagate_pair`,
    `log_negativity` and `fidelity_to_input` on each row's state up to
    rounding.  It refuses what that path refuses: dim past MAX_PAIR_MODES,
    a mode index that is not an int or lies outside [0, dim), a channel
    tensor that is not finite and a fully absorbed pair.
    """
    if dim > MAX_PAIR_MODES:
        raise ValueError(f"pair propagation limited to {MAX_PAIR_MODES} modes")
    modes = list(n_range)
    _check_modes(dim, fixed_mode=fixed_mode)
    for n in modes:
        _check_modes(dim, n=n)
    pair = np.array([(fixed_mode, n) for n in modes], dtype=int).reshape(-1, 2)
    tensor = channel_tensor(kernel, dim)
    weight = np.where(pair[:, :1] == pair[:, 1:], [1.0, 0.0], math.sqrt(0.5))
    coef = weight[:, :, None] * weight[:, None, :]
    blocks = tensor.transpose(2, 3, 0, 1)[pair[:, :, None], pair[:, None, :]]  # [r, a, b] = C_ab
    mass = np.einsum("rab,rab->r", coef, np.trace(blocks, axis1=3, axis2=4) ** 2).real
    absorbed = ~(mass > 0.0)  # NaN too
    if absorbed.any():
        raise RuntimeError(f"pair fully absorbed (transmitted mass {mass[absorbed][0]:g})")
    # [r, c, d, a, b] = C_ab[pair c, pair d], the output's entries on the input's support
    corner = blocks[np.arange(len(pair))[:, None, None], :, :, pair[:, :, None], pair[:, None, :]]
    fidelity = np.einsum("rcd,rab,rcdab->r", coef, coef, corner ** 2).real / mass
    negativity = sum(
        -np.minimum(np.linalg.eigvalsh(stack), 0.0).sum(axis=1)
        for stack in _partial_transpose_blocks(blocks, coef)
    ) / mass
    return [
        RobustnessRow(
            n=n,
            en_initial=0.0 if n == fixed_mode else 1.0,
            en_final=math.log2(2.0 * negativity[r] + 1.0),
            fidelity=float(fidelity[r]),
            degenerate=n == fixed_mode,
            transmitted_mass=float(mass[r]),
        )
        for r, n in enumerate(modes)
    ]
