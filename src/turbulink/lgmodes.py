"""Laguerre-Gaussian mode bookkeeping and turbulence coupling tensors.

The scattering integrals need the modal correlation functions
W_{m,n}(K, phi, z): overlaps of two propagated LG modes displaced by a
transverse wavenumber K.  Each W is a finite expansion

    W_{m,n} = sum_j c_{m,n,j} (K^2 a / 8)^{j/2} e^{-K^2 a / 8} e^{i(l_m - l_n) phi}

with a = (1 + t^2) w_0^2 and t = z / z_R.  The c coefficients are in closed
form.  An LG mode (r, l) is the product of two circular oscillator states
with quanta n+- = r + (|l| +- l)/2 (Nienhuis & Allen, PRA 48, 656 (1993)),
and a displacement by K acts on each oscillator separately, so c_{m,n,.} at
t = 0 is the convolution of two one-axis displaced-Fock matrix elements,
sqrt(b!/a!) x0^{(a-b)/2} L_b^{(a-b)}(x0) for a >= b (Cahill & Glauber,
Phys. Rev. 177, 1857 (1969)).  The t dependence is the pure Gouy phase
b^{g_m - g_n}, b = (1 + it)/(1 - it), g = r + |l|/2, so the t = 0
coefficients of a basis are computed once per cutoff.

Radially integrating W W* against the von Karman spectrum (outer scale sent
to zero, the divergent total-rate piece cancelled analytically) leaves a
Gamma-function sum over coefficient pairs that conserves
Delta = l_m - l_n = l_u - l_v.  `pair_tensor` assembles one Delta-l sector
of it, which the propagators use directly; `coupling_tensor` scatters every
sector into the dense tensor at one wavelength.  Between two carrier
frequencies the coefficients are real up to diagonal phases, so
`pair_coupling_assembler` builds the sector-0 coupling of many frequency
pairs as real GEMMs.  A direct quadrature of the defining integral with a
small but finite outer scale is kept alongside as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mathcore import gamma_fn
from .turbulence import SPECTRUM_AMPLITUDE, l_strength, normalized_distance, two_pi_c_over

MAX_ORACLE_INDEX = 8
# The Gamma-weighted coupling sum cancels: against a 40-digit evaluation its
# worst entry is off by 5.5e-11 (cutoff 4), 1.3e-8 (5), 4.1e-7 (6), 8.4e-4 (7)
# and 1.2 (8) of the largest entry, so no coupling is assembled past 6.
MAX_COUPLING_CUTOFF = 6

# k^2 * (radial integral constant): the closed-form coupling reads
# COUPLING_PREFACTOR * l(z) * sum_{j1 j2} 2^{-(j1+j2)/2} Gamma((j1+j2)/2 - 5/6) c c*
COUPLING_PREFACTOR = SPECTRUM_AMPLITUDE * 16.0 * math.pi**4 * 2.0 ** (-8.0 / 3.0)  # = 8.1000...

# fundamental-mode decay rate is DECAY_CONSTANT * l(z)
DECAY_CONSTANT = COUPLING_PREFACTOR * abs(math.gamma(-5.0 / 6.0))  # = 54.100...


class OracleIndexError(ValueError):
    """Mode index beyond the supported range."""


@dataclass(frozen=True, order=True)
class LGIndex:
    """Radial index r >= 0 and azimuthal index l of a Laguerre-Gaussian mode."""

    l: int
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("radial index must be >= 0")

    @property
    def gouy_weight(self) -> float:
        """Half the Gouy-phase order relative to the fundamental: r + |l| / 2."""
        return self.r + 0.5 * abs(self.l)


@dataclass(frozen=True)
class ModeBasis:
    """Truncated LG basis: |l| <= cutoff, 0 <= r <= cutoff.

    Ordering is l ascending then r ascending, fixed so that each l is one
    contiguous l-block of cutoff + 1 modes (a Delta-l sector of a density
    matrix is then a stack of l-blocks), the same on every run and platform.
    """

    cutoff: int
    indices: tuple = field(init=False)

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        modes = tuple(
            LGIndex(l=l, r=r)
            for l in range(-self.cutoff, self.cutoff + 1)
            for r in range(self.cutoff + 1)
        )
        object.__setattr__(self, "indices", modes)

    @property
    def size(self) -> int:
        return (2 * self.cutoff + 1) * (self.cutoff + 1)

    def position(self, idx: LGIndex) -> int:
        if abs(idx.l) > self.cutoff or idx.r > self.cutoff:
            raise KeyError(f"{idx} outside basis cutoff {self.cutoff}")
        return (idx.l + self.cutoff) * (self.cutoff + 1) + idx.r

    @property
    def fundamental(self) -> int:
        """Position of the (r=0, l=0) mode."""
        return self.position(LGIndex(l=0, r=0))


def _check_oracle_scale(*indices: LGIndex):
    for idx in indices:
        if idx.r > MAX_ORACLE_INDEX or abs(idx.l) > MAX_ORACLE_INDEX:
            raise OracleIndexError(f"{idx} beyond supported index range {MAX_ORACLE_INDEX}")


def _laguerre_coefficients(n: int, alpha: int) -> np.ndarray:
    """Power-series coefficients of the generalized Laguerre polynomial L_n^(alpha)."""
    return np.array(
        [(-1.0) ** k * math.comb(n + alpha, n - k) / math.factorial(k) for k in range(n + 1)]
    )


def _circular_quanta(idx: LGIndex) -> tuple:
    """Quanta n+, n- of the two circular oscillators that make up mode idx."""
    return idx.r + (abs(idx.l) + idx.l) // 2, idx.r + (abs(idx.l) - idx.l) // 2


@lru_cache(maxsize=None)
def _axis_coefficients(p: int, q: int) -> np.ndarray:
    # one oscillator's displaced-Fock element <p|D|q> as coefficients of
    # x0^{j/2}: i^{a-b} sqrt(b!/a!) L_b^(a-b) on j = a-b, a-b+2, ..., a+b
    # (a >= b); keys are bounded by the index guard
    a, b = max(p, q), min(p, q)
    out = np.zeros(a + b + 1, dtype=complex)
    out[a - b :: 2] = (
        1j ** (a - b) * math.sqrt(math.factorial(b) / math.factorial(a))
        * _laguerre_coefficients(b, a - b)
    )
    out.setflags(write=False)
    return out


def _c0(m: LGIndex, n: LGIndex) -> np.ndarray:
    # the t = 0 coefficients: one displaced-Fock element per circular axis
    _check_oracle_scale(m, n)
    (pm, qm), (pn, qn) = _circular_quanta(m), _circular_quanta(n)
    plus, minus = _axis_coefficients(pm, pn), _axis_coefficients(qm, qn)
    return (-1.0) ** (m.r + n.r) * np.convolve(plus, minus)


def _gouy_phase(weight_difference, t: float):
    """Gouy phase b^{g_m - g_n} with b = (1 + it)/(1 - it), g = r + |l|/2."""
    return np.exp(2j * math.atan(t) * weight_difference)


def c_coefficients(m: LGIndex, n: LGIndex, t: float) -> np.ndarray:
    """Correlation-function coefficients c_{m,n,j} at normalized distance t.

    Returns the dense j-array (length 2(r_m + r_n) + |l_m| + |l_n| + 1);
    entries with j of the opposite parity to |l_m| + |l_n| are exactly zero.
    """
    return _c0(m, n) * _gouy_phase(m.gouy_weight - n.gouy_weight, t)


def lg_momentum_amplitude(idx: LGIndex, K, phi, t: float, w0: float):
    """Momentum-space LG amplitude G(K, phi) at normalized distance t.

    Normalized so that int |G|^2 d^2K / 4 pi^2 = 1.  K is the physical
    transverse wavenumber (1/m); scalar or array inputs broadcast.
    """
    _check_oracle_scale(idx)
    r, L = idx.r, abs(idx.l)
    norm = math.sqrt(
        math.factorial(r) * 2.0 ** (L + 1) / (math.pi * math.factorial(r + L))
    )
    K = np.asarray(K, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    kappa = w0 * K
    y = kappa * kappa
    value = (
        (-1.0) ** r
        * w0
        * norm
        * math.pi
        * (0.5j * kappa) ** L
        * np.exp(1j * idx.l * phi_arr)
        * np.exp(-0.25 * y * (1.0 - 1j * t))
        * np.polynomial.polynomial.polyval(0.5 * y, _laguerre_coefficients(r, L))
    )
    return complex(value) if value.ndim == 0 else value


def free_prop_S(m: LGIndex, n: LGIndex, z_r: float) -> complex:
    """Free-propagation matrix element: nonzero only for equal azimuthal
    indices with radial indices differing by at most one; pure imaginary.

    Both cases carry the same 1/(2 z_R) normalization; the off-diagonal
    value is fixed by direct evaluation of the defining momentum integral
    (the diagonal case pins the convention).
    """
    if m.l != n.l:
        return 0j
    l = abs(m.l)
    if m.r == n.r:
        return 1j * (1 + l + 2 * m.r) / (2.0 * z_r)
    if abs(m.r - n.r) == 1:
        r = min(m.r, n.r)
        return 1j * math.sqrt((1.0 + l + r) * (1.0 + r)) / (2.0 * z_r)
    return 0j


def free_prop_S_numeric(m: LGIndex, n: LGIndex, z_r: float, w0: float, order: int = 160) -> complex:
    """Oracle for free_prop_S: (i / 2k) int |K|^2 G_m G_n* d^2K / 4 pi^2 at z = 0."""
    wavelength = math.pi * w0**2 / z_r
    k = 2.0 * math.pi / wavelength
    half = 9.0 / w0
    axis = np.linspace(-half, half, order)
    step = axis[1] - axis[0]
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    k_r = np.hypot(kx, ky)
    k_phi = np.arctan2(ky, kx)
    values = (
        k_r**2
        * lg_momentum_amplitude(m, k_r, k_phi, 0.0, w0)
        * np.conj(lg_momentum_amplitude(n, k_r, k_phi, 0.0, w0))
    )
    return complex(0.5j / k * values.sum() * step * step / (4.0 * math.pi**2))


@lru_cache(maxsize=64)
def gamma_weight_matrix(j_count: int) -> np.ndarray:
    """Weights M[j1, j2] = 2^{-(j1+j2)/2} Gamma((j1+j2)/2 - 5/6) of the
    coefficient double sum (the radial integral in closed form).  Cached;
    the returned array is read-only."""
    js = np.arange(j_count)
    total = js[:, None] + js[None, :]
    out = np.zeros((j_count, j_count))
    for value in np.unique(total):
        half = 0.5 * value
        out[total == value] = 2.0**-half * gamma_fn(half - 5.0 / 6.0)
    out.setflags(write=False)
    return out


def _log_radial_grid(lower: float, upper: float, nodes_per_panel: int = 16):
    # composite Gauss-Legendre panels in v = ln K, one panel per ~half decade
    lo, hi = math.log(lower), math.log(upper)
    panels = max(8, int(math.ceil((hi - lo) / math.log(10.0) * 2.0)))
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    v = (mid[:, None] + half * gx[None, :]).ravel()
    w = np.tile(half * gw, panels)
    return np.exp(v), w  # weights are for dv; integrand must carry the K Jacobian


def coupling_numeric_oracle(
    m: LGIndex,
    n: LGIndex,
    u: LGIndex,
    v: LGIndex,
    z: float,
    cn2: float,
    w0: float,
    frequencies,
    kappa_0: float,
    angular_points: int = 256,
) -> tuple:
    """Quadrature of the defining integral k1 k2 int Phi W_{m,u} W*_{n,v} d^2K / 4 pi^2.

    frequencies: a single wavelength (m), or an angular-frequency pair
    (omega1, omega2) in rad/s; in the pair case the two correlation
    functions are evaluated at their own normalized distances.

    Keeps the outer scale finite (kappa_0 > 0) so the total-rate part is a
    genuine number; returns (L_value, L_T) where L_T is the oracle's own
    k1 k2 int Phi d^2K / 4 pi^2 from the same radial quadrature.  Test code
    compares L_value - L_T (diagonal tuples) against the closed form.

    The azimuthal dependence of W_{m,u} W*_{n,v} is a single phase
    e^{i ((l_m - l_u) - (l_n - l_v)) phi}, so the angular quadrature reduces
    to one trapezoid sum that multiplies the radial integral.  The radial
    integral runs on a fixed Gauss-Legendre grid in ln K spanning from well
    below kappa_0 to well past the Gaussian cutoff of the correlation
    functions; the integrand is smooth on that axis, so the rule is
    effectively exact and deterministic.
    """
    if kappa_0 <= 0:
        raise ValueError("oracle needs a positive outer-scale wavenumber")
    _check_oracle_scale(m, n, u, v)
    if isinstance(frequencies, tuple):
        lam1, lam2 = (two_pi_c_over(omega) for omega in frequencies)
    else:
        lam1 = lam2 = float(frequencies)
    t1, t2 = normalized_distance(z, lam1, w0), normalized_distance(z, lam2, w0)
    a1 = (1.0 + t1 * t1) * w0**2
    a2 = (1.0 + t2 * t2) * w0**2
    c1 = c_coefficients(m, u, t1)
    c2 = np.conj(c_coefficients(n, v, t2))
    j1 = np.arange(len(c1))
    j2 = np.arange(len(c2))

    delta_phase = (m.l - u.l) - (n.l - v.l)
    phis = np.linspace(0.0, 2.0 * math.pi, angular_points, endpoint=False)
    angular = complex(np.sum(np.exp(1j * delta_phase * phis))) * (2.0 * math.pi / angular_points)

    wavenumbers = (2.0 * math.pi) ** 2 / (lam1 * lam2)
    psd_scale = SPECTRUM_AMPLITUDE * (2.0 * math.pi) ** 3 * cn2

    K, w = _log_radial_grid(kappa_0 * 1e-3, 60.0 / math.sqrt(0.5 * (a1 + a2)))
    von_karman = (K * K + kappa_0**2) ** (-11.0 / 6.0)
    x1 = K * K * a1 / 8.0
    x2 = K * K * a2 / 8.0
    w1 = (c1[None, :] * x1[:, None] ** (0.5 * j1[None, :])).sum(axis=1)
    w2 = (c2[None, :] * x2[:, None] ** (0.5 * j2[None, :])).sum(axis=1)
    radial = np.sum(w * K * K * von_karman * w1 * w2 * np.exp(-x1 - x2))
    value = wavenumbers * psd_scale * angular * radial / (4.0 * math.pi**2)

    rate = np.sum(w * K * K * von_karman)
    l_t = wavenumbers * psd_scale * (2.0 * math.pi) * rate / (4.0 * math.pi**2)
    return complex(value), float(l_t)


def coupling_oracle_extrapolated(
    m: LGIndex,
    n: LGIndex,
    u: LGIndex,
    v: LGIndex,
    z: float,
    cn2: float,
    w0: float,
    frequencies,
    kappa_0: float,
    ratio: float = 2.0,
) -> complex:
    """Outer-scale-free oracle value by Richardson extrapolation.

    The finite-outer-scale oracle differs from the kappa_0 -> 0 limit by a
    leading correction proportional to kappa_0^{1/3} (the von Karman density
    deviates from the pure power law only for K below kappa_0, where the
    subtracted correlation product rises like K^2).  Two oracle runs at
    kappa_0 and kappa_0 / ratio eliminate that term; what remains is
    O(kappa_0^{2/3}), far below the comparison tolerances.  Returns the
    total-rate-subtracted value, comparable to the closed form directly.
    """
    val_a, lt_a = coupling_numeric_oracle(m, n, u, v, z, cn2, w0, frequencies, kappa_0)
    val_b, lt_b = coupling_numeric_oracle(m, n, u, v, z, cn2, w0, frequencies, kappa_0 / ratio)
    if m == u and n == v:
        val_a -= lt_a
        val_b -= lt_b
    weight = ratio ** (1.0 / 3.0)
    return (weight * val_b - val_a) / (weight - 1.0)


@dataclass(frozen=True)
class CouplingTensor:
    """Dense coupling tensor over a mode basis at one evaluation point.

    entries[a, b, c, d] = L_{m_a, n_b, u_c, v_d} with the divergent
    total-rate part delta_mu delta_nv L_T excluded (it cancels identically in
    the propagation equations).
    """

    basis: ModeBasis
    z: float
    entries: np.ndarray


@lru_cache(maxsize=None)
def _c0_stack(cutoff: int) -> np.ndarray:
    # read-only; keys are bounded by the index guard
    basis = ModeBasis(cutoff)
    stack = np.zeros((6 * cutoff + 1, basis.size, basis.size), dtype=complex)
    for a, m in enumerate(basis.indices):
        for b, u in enumerate(basis.indices):
            values = _c0(m, u)
            stack[: len(values), a, b] = values
    stack.setflags(write=False)
    return stack


def coefficient_stack(basis: ModeBasis, t: float) -> np.ndarray:
    """c_{m,u,j} for all basis pairs as a new array of shape (j_count, size, size)."""
    weights = np.array([idx.gouy_weight for idx in basis.indices])
    return _c0_stack(basis.cutoff) * _gouy_phase(weights[:, None] - weights[None, :], t)


def sector_blocks(basis: ModeBasis, delta: int) -> tuple:
    """(first row l-block, first column l-block, count) of Delta-l sector delta."""
    return max(delta, 0), max(-delta, 0), 2 * basis.cutoff + 1 - abs(delta)


def pair_tensor(basis: ModeBasis, left: np.ndarray, right: np.ndarray, delta: int) -> np.ndarray:
    """Dense block of the coefficient double sum on the Delta-l sector delta.

    G[(q, r_u, r_v), (p, r_m, r_n)] = sum_{j1 j2} left[j1, m, u] M[j1, j2] right[j2, n, v]
    over l_m - l_n = l_u - l_v = delta, M the Gamma weights, p and q the
    sector's l-block pairs (see `sector_blocks`): it maps a sector, stored
    as its stack of l-blocks, onto itself.  (stack, conj(stack)) gives the
    single-frequency coupling, dressed stacks the cross-frequency one.
    """
    if basis.cutoff > MAX_COUPLING_CUTOFF:
        raise OracleIndexError(f"coupling sum inaccurate beyond cutoff {MAX_COUPLING_CUTOFF}")
    j_count, side = left.shape[0], basis.cutoff + 1
    lo_row, lo_col, count = sector_blocks(basis, delta)

    def blocks(stack, lo):  # one (j, r r') matrix per l-block pair of the sector
        sub = stack.reshape(j_count, 2 * side - 1, side, 2 * side - 1, side)
        sub = sub[:, lo : lo + count, :, lo : lo + count, :].transpose(1, 3, 0, 2, 4)
        return sub.reshape(count * count, j_count, side * side)

    a, b = blocks(left, lo_row), blocks(right, lo_col)
    pairs = (a.transpose(0, 2, 1) @ gamma_weight_matrix(j_count)) @ b
    # [(p, q), (r_m, r_u), (r_n, r_v)] -> [(q, r_u, r_v), (p, r_m, r_n)]
    pairs = pairs.reshape(count, count, side, side, side, side).transpose(1, 3, 5, 0, 2, 4)
    return pairs.reshape(count * side * side, count * side * side)


def pair_coupling_assembler(cutoff: int, batch: int):
    """A function (ratio, phase) -> (real, diagonal) for `batch` carrier
    pairs at one z, given each carrier's a_i / mean(a) and pi/2 + atan t_i as
    (2, batch) arrays: their sector-0 couplings up to the rate are
    conj(diagonal)[:, :, None] * real * diagonal[:, None, :] (`pair_tensor`'s
    layout).  The coefficients are real up to diagonal phases,
    c_{m,u,j}(t) = e^{i(pi/2 + atan t)(N_m - N_u)} R[j, m, u] with N = 2r + |l|,
    so real = R^T diag(s1^j) M diag(s2^j) R with s_i^2 = a_i / mean(a).  Each
    call overwrites the real block the last one returned (fresh arrays would
    cost more in page faults than the GEMMs)."""
    if cutoff > MAX_COUPLING_CUTOFF:
        raise OracleIndexError(f"coupling sum inaccurate beyond cutoff {MAX_COUPLING_CUTOFF}")
    side, count, side_sq = cutoff + 1, 2 * cutoff + 1, (cutoff + 1) ** 2
    n = np.array([2 * idx.r + abs(idx.l) for idx in ModeBasis(cutoff).indices])
    real = (_c0_stack(cutoff) * np.array([1, 1j, -1, -1j])[(n[None, :] - n[:, None]) % 4]).real
    j_count, count_sq = len(real), count * count
    # [j, (p, q, r_m, r_u)] over the l-block pairs (p, q), and N of each sector entry (p, r_m, r_n)
    right = real.reshape(j_count, count, side, count, side).transpose(0, 1, 3, 2, 4).reshape(j_count, -1)
    left = right.reshape(j_count, count_sq, side_sq).transpose(1, 2, 0)
    n_row, n_col = np.repeat(n, side), np.tile(n.reshape(count, side), side).reshape(-1)
    half_j, gamma = 0.5 * np.arange(j_count), gamma_weight_matrix(j_count)
    # two buffers, each written while the other one holds the operand
    first, second = np.empty((2, batch * count_sq * side_sq * max(j_count, side_sq)))
    inner = first[: batch * j_count * count_sq * side_sq].reshape(batch, j_count, count_sq, side_sq)
    moved = second[: inner.size].reshape(count_sq, j_count, batch, side_sq)
    blocks = first[: batch * count_sq * side_sq**2].reshape(count, count, side, side, batch, side, side)
    out = second[: blocks.size].reshape(batch, count, side, side, count, side, side)

    def assemble(ratio: np.ndarray, phase: np.ndarray) -> tuple:
        # one GEMM per weight matrix, then one per l-block pair over the batch
        scale = ratio[:, :, None] ** half_j
        weights = scale[0][:, :, None] * gamma * scale[1][:, None, :]
        np.matmul(weights, right, out=inner.reshape(batch, j_count, -1))
        np.copyto(moved, inner.transpose(2, 1, 0, 3))
        np.matmul(left, moved.reshape(count_sq, j_count, -1), out=blocks.reshape(count_sq, side_sq, -1))
        # [p, q, r_m, r_u, batch, r_n, r_v] -> [batch, (q, r_u, r_v), (p, r_m, r_n)]
        np.copyto(out, blocks.transpose(4, 1, 3, 6, 0, 2, 5))
        diagonal = np.exp(1j * (phase[0][:, None] * n_row - phase[1][:, None] * n_col))
        return out.reshape(batch, count * side_sq, count * side_sq), diagonal

    return assemble


def coupling_tensor(basis: ModeBasis, z: float, cn2: float, w0: float, frequencies) -> CouplingTensor:
    """The full tensor L_{m,n,u,v}(z) (total-rate part excluded) at the
    wavelength `frequencies` (m), sector by sector."""
    left = coefficient_stack(basis, normalized_distance(z, frequencies, w0))
    rate, right = COUPLING_PREFACTOR * l_strength(z, cn2, frequencies, w0), np.conj(left)
    deltas = range(-2 * basis.cutoff, 2 * basis.cutoff + 1)
    blocks = [rate * pair_tensor(basis, left, right, d) for d in deltas]  # guard before allocating
    side = basis.cutoff + 1
    # entries[m, n, u, v] split into (l-block, radial index) pairs
    entries = np.zeros((2 * side - 1, side) * 4, dtype=complex)
    for delta, block in zip(deltas, blocks):
        lo_row, lo_col, count = sector_blocks(basis, delta)
        p, q = np.arange(count)[:, None], np.arange(count)[None, :]
        # [q, r_u, r_v, p, r_m, r_n] -> [p, q, r_m, r_n, r_u, r_v]
        block = block.reshape(count, side, side, count, side, side).transpose(3, 0, 4, 5, 1, 2)
        entries[lo_row + p, :, lo_col + p, :, lo_row + q, :, lo_col + q, :] = block
    return CouplingTensor(basis=basis, z=z, entries=entries.reshape((basis.size,) * 4))
