"""Entangled photon pairs through independent turbulent channels.

Each photon of a two-photon temporal-mode state rides its own copy of the
single-photon channel: frequency-basis amplitudes are damped by
P(omega1, omega2) P(omega1', omega2'), so the mode-basis map is the tensor
square of the one-photon channel tensor.  Entanglement is scored by the
negativity of the partial transpose and by overlap fidelity with the input.

The pair map out[u, U, v, V] = sum psi[m, n] conj(psi[p, q]) C[u, v, m, p]
C[U, V, n, q] is contracted one index pair at a time: psi over m, conj(psi)
over p (two dim^5 tensordots), then one (dim^2, dim^2) GEMM against C over
(n, q) (dim^6), so no step costs more than dim^6.  A robustness scan builds
C once and reuses it for every row.

The arithmetic takes the dtype of its inputs, with numpy's promotion and no
branch: the mode-pair states, the analytic kernel and the channel tensor are
real, so a scan row runs real GEMMs and a real symmetric eigen-solve for the
negativity; a complex state or kernel promotes every step to complex, at
about twice the cost.

Basis ordering for the pair density is first-photon-major: the matrix index
of |f_m> |f_n> is m * dim + n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schmidt import BiphotonSpec
from .temporal import ChannelKernel

MAX_PAIR_MODES = 14


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
        if min(m, n) < 0 or max(m, n) >= dim:
            raise ValueError("mode index outside the basis dimension")
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
    the sense C[u, v, m, n] = C[v, u, n, m].
    """
    psi = kernel.mode_vectors(dim)  # (dim, grid)
    left = psi[:, None, :] * psi[None, :, :]  # (u, m, grid)
    grid = left.reshape(dim * dim, -1)
    block = grid @ kernel.matrix @ grid.T  # [(u,m), (n,v)]
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


def robustness_scan(
    kernel: ChannelKernel,
    spec: BiphotonSpec,
    fixed_mode: int,
    n_range,
    dim: int = 12,
) -> list:
    """Sweep the second mode of (|f_m f_m> + |f_n f_n>)/sqrt(2) over n.

    The n == fixed_mode row degenerates to a product state; it is reported
    with zero initial negativity and flagged rather than skipped.
    """
    tensor = channel_tensor(kernel, dim)
    rows = []
    for n in n_range:
        degenerate = n == fixed_mode
        state = TwoPhotonState.mode_pair(fixed_mode, n, dim)
        en_initial = 0.0 if degenerate else 1.0
        rho, mass = _pair_density(state.coefficients, tensor)
        rows.append(
            RobustnessRow(
                n=n,
                en_initial=en_initial,
                en_final=log_negativity(rho),
                fidelity=fidelity_to_input(rho, state),
                degenerate=degenerate,
                transmitted_mass=mass,
            )
        )
    return rows
