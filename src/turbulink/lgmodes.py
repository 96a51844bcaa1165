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
Delta = l_m - l_n = l_u - l_v.  The coefficients are real up to diagonal
phases, so `pair_coupling_assembler`, the one builder of that sum, forms one
Delta-l sector of it as real GEMMs for a batch of carrier-frequency pairs,
multiplying for each pair of l-blocks only the j of its parity (the others
are zero), and on request only sector 0's reflection-even half; the
single-wavelength block of each sector is cached from one batch-1 call
and dressed with its phases at each t (`sector_coupling`), which the
propagators use directly and `coupling_tensor` scatters into the dense
tensor.  A direct quadrature of the defining integral with a small but
finite outer scale is kept alongside as an oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .turbulence import SPECTRUM_AMPLITUDE, _check_index, l_strength, normalized_distance, two_pi_c_over

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
        _check_index("l", self.l, signed=True)
        _check_index("r", self.r)

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
        _check_index("cutoff", self.cutoff)  # before the lookup, where 1.0 and True would hit 1
        object.__setattr__(self, "indices", _basis_indices(self.cutoff))

    @property
    def size(self) -> int:
        return (2 * self.cutoff + 1) * (self.cutoff + 1)

    def position(self, idx: LGIndex) -> int:
        if abs(idx.l) > self.cutoff or idx.r > self.cutoff:
            raise KeyError(f"{idx} outside basis cutoff {self.cutoff}")
        return (idx.l + self.cutoff) * (self.cutoff + 1) + idx.r

    @property
    def fundamental(self) -> int:
        """Position of the (r=0, l=0) mode, the first of the l = 0 block."""
        return self.cutoff * (self.cutoff + 1)


@lru_cache(maxsize=16)
def _basis_indices(cutoff: int) -> tuple:
    # a ModeBasis's modes, shared by every basis of the cutoff (LGIndex is frozen)
    return tuple(LGIndex(l=l, r=r) for l in range(-cutoff, cutoff + 1) for r in range(cutoff + 1))


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


@lru_cache(maxsize=None)
def _axis_product(plus: tuple, minus: tuple) -> np.ndarray:
    # one displaced-Fock element per circular axis, convolved, given the
    # quanta (n+ of m, n+ of n) and (n- of m, n- of n): the t = 0 coefficients
    # up to the sign (-1)^(r_m + r_n), the same array for (n, m); read-only,
    # and keys are bounded by the index guard
    out = np.convolve(_axis_coefficients(*plus), _axis_coefficients(*minus))
    out.setflags(write=False)
    return out


def _c0(m: LGIndex, n: LGIndex) -> np.ndarray:
    # the t = 0 coefficients
    _check_oracle_scale(m, n)
    (pm, qm), (pn, qn) = _circular_quanta(m), _circular_quanta(n)
    return (-1.0) ** (m.r + n.r) * _axis_product((pm, pn), (qm, qn))


def c_coefficients(m: LGIndex, n: LGIndex, t: float) -> np.ndarray:
    """Correlation-function coefficients c_{m,n,j} at normalized distance t.

    Returns the dense j-array (length 2(r_m + r_n) + |l_m| + |l_n| + 1);
    entries with j of the opposite parity to |l_m| + |l_n| are exactly zero.
    """
    # the Gouy phase b^{g_m - g_n}, b = (1 + it)/(1 - it)
    return _c0(m, n) * np.exp(2j * math.atan(t) * (m.gouy_weight - n.gouy_weight))


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


def free_prop_S_numeric(m: LGIndex, n: LGIndex, z_r: float, w0: float) -> complex:
    """Oracle for free_prop_S: (i / 2k) int |K|^2 G_m G_n* d^2K / 4 pi^2 at z = 0."""
    wavelength = math.pi * w0**2 / z_r
    k = 2.0 * math.pi / wavelength
    half = 9.0 / w0
    axis = np.linspace(-half, half, 160)
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
    coefficient double sum (the radial integral in closed form); the Gamma
    argument is never an integer, so never a pole.  Cached; the returned
    array is read-only."""
    table = np.array([2.0 ** (-0.5 * k) * math.gamma(0.5 * k - 5.0 / 6.0) for k in range(2 * j_count - 1)])
    js = np.arange(j_count)
    out = table[js[:, None] + js[None, :]]
    out.setflags(write=False)
    return out


def _log_radial_grid(lower: float, upper: float):
    # composite Gauss-Legendre panels in v = ln K, one panel per ~half decade
    lo, hi = math.log(lower), math.log(upper)
    panels = max(8, int(math.ceil((hi - lo) / math.log(10.0) * 2.0)))
    gx, gw = np.polynomial.legendre.leggauss(16)
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
    phis = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    angular = complex(np.sum(np.exp(1j * delta_phase * phis))) * (2.0 * math.pi / 256)

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
) -> complex:
    """Outer-scale-free oracle value by Richardson extrapolation.

    The finite-outer-scale oracle differs from the kappa_0 -> 0 limit by a
    leading correction proportional to kappa_0^{1/3} (the von Karman density
    deviates from the pure power law only for K below kappa_0, where the
    subtracted correlation product rises like K^2).  Two oracle runs at
    kappa_0 and kappa_0 / 2 eliminate that term; what remains is
    O(kappa_0^{2/3}), far below the comparison tolerances.  Returns the
    total-rate-subtracted value, comparable to the closed form directly.
    """
    val_a, lt_a = coupling_numeric_oracle(m, n, u, v, z, cn2, w0, frequencies, kappa_0)
    val_b, lt_b = coupling_numeric_oracle(m, n, u, v, z, cn2, w0, frequencies, kappa_0 / 2.0)
    if m == u and n == v:
        val_a -= lt_a
        val_b -= lt_b
    weight = 2.0 ** (1.0 / 3.0)
    return (weight * val_b - val_a) / (weight - 1.0)


@dataclass(frozen=True)
class CouplingTensor:
    """Dense coupling tensor over a mode basis at one evaluation point.

    entries[a, b, c, d] = L_{m_a, n_b, u_c, v_d} with the divergent
    total-rate part delta_mu delta_nv L_T excluded (it cancels identically in
    the propagation equations).
    """

    basis: ModeBasis
    entries: np.ndarray


@lru_cache(maxsize=None)
def _real_stack(cutoff: int) -> np.ndarray:
    # R[j, P, Q, r_m, r_u] over the l-blocks P of m and Q of u, c_{m,u,j}(0) = i^{N_m - N_u} R[j, m, u]
    # with N = 2r + |l|; read-only, and keys are bounded by the index guard
    basis, side = ModeBasis(cutoff), cutoff + 1
    _check_oracle_scale(basis.indices[-1])  # r = l = cutoff
    stack = np.zeros((6 * cutoff + 1, basis.size, basis.size), dtype=complex)
    quanta = [_circular_quanta(idx) for idx in basis.indices]
    for (a, (pm, qm)), (b, (pu, qu)) in itertools.combinations_with_replacement(enumerate(quanta), 2):
        values = _axis_product((pm, pu), (qm, qu))
        stack[: len(values), a, b] = stack[: len(values), b, a] = values
    # the sign (-1)^(r_m + r_u), then the quarter turn (-i)^(N_m - N_u), on each
    # written entry: exact units, applied in the order c_{m,u}(0) takes them,
    # which keeps even the sign of each zero
    r = np.array([idx.r for idx in basis.indices])
    n = 2 * r + np.abs([idx.l for idx in basis.indices])
    sign = (-1.0) ** (r[:, None] + r[None, :])
    quarter = np.array([(-1j) ** k for k in range(4)])[(n[:, None] - n[None, :]) % 4]
    written = np.arange(len(stack))[:, None, None] < n[:, None] + n[None, :] + 1  # the length of c_{m,u}
    np.multiply(stack, sign, out=stack, where=written)
    np.multiply(stack, quarter, out=stack, where=written)
    stack = stack.real.reshape(-1, 2 * side - 1, side, 2 * side - 1, side).transpose(0, 1, 3, 2, 4).copy()
    stack.setflags(write=False)
    return stack


def sector_blocks(cutoff: int, delta: int) -> tuple:
    """(first row l-block, first column l-block, count) of Delta-l sector
    delta in the basis up to `cutoff`; |delta| is at most 2 cutoff."""
    if abs(delta) > 2 * cutoff:
        raise ValueError(f"delta must lie in [-{2 * cutoff}, {2 * cutoff}] at cutoff {cutoff}, not {delta}")
    return max(delta, 0), max(-delta, 0), 2 * cutoff + 1 - abs(delta)


@lru_cache(maxsize=64)
def sector_orders(cutoff: int, delta: int) -> tuple:
    """(N_m, N_n), N = 2r + |l|, on each entry (p, r_m, r_n) of sector delta; read-only."""
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    n = 2 * np.arange(cutoff + 1) + np.abs(np.arange(-cutoff, cutoff + 1))[:, None]  # [l-block, r]
    rows, cols = n[lo_row : lo_row + count].repeat(cutoff + 1), np.tile(n[lo_col : lo_col + count], cutoff + 1).ravel()
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pair_coupling_assembler(cutoff: int, batch: int, delta: int, even: bool = False):
    """A function ratio -> real for `batch` carrier pairs at one z, given
    each carrier's a_i / mean(a) as a (2, batch) array: the coefficient
    double sum on Delta-l sector delta,

        G[(q, r_u, r_v), (p, r_m, r_n)] = sum_{j1 j2} c1[j1, m, u] M[j1, j2] conj(c2[j2, n, v])

    over l_m - l_n = l_u - l_v = delta, M the Gamma weights and p and q the
    sector's l-block pairs (see `sector_blocks`), is conj(d)[:, :, None] *
    real * d[:, None, :] with the diagonal phases d = e^{i(phi1 N_m - phi2 N_n)},
    phi_i = pi/2 + atan t_i and (N_m, N_n) from `sector_orders`; it maps a
    sector, stored as its stack of l-blocks, onto itself.  The coefficients
    are real up to diagonal phases, c_{m,u,j}(t) = e^{i(pi/2 + atan t)(N_m - N_u)} R[j, m, u],
    so real = (R^T W) R with W = diag(s1^j) M diag(s2^j), s_i^2 = a_i / mean(a).
    R[j, m, u] is 0 unless j has the parity of l_m - l_u, so each l-block
    pair multiplies only the j of its parity.  With `even` (sector 0 only)
    the map acts on the reflection-even half: the first (cutoff + 1)^3
    entries (the l-blocks l <= 0) of a sector whose l-blocks l and -l are
    equal.  Only the row blocks with l <= 0 are built, and each column block
    is added to its mirror's.  Each call overwrites the real block the last
    one returned (fresh arrays would cost more in page faults than the GEMMs)."""
    if cutoff > MAX_COUPLING_CUTOFF:
        raise OracleIndexError(f"coupling sum inaccurate beyond cutoff {MAX_COUPLING_CUTOFF}")
    if even and delta:
        raise ValueError("only sector 0 has a reflection-even half")
    side, side_sq = cutoff + 1, (cutoff + 1) ** 2
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    kept = cutoff + 1 if even else count  # the l-blocks of the result
    stack = _real_stack(cutoff)
    per_parity = len(stack) // 2 + 1  # j of one parity; the odd ones end in a zero past the stack
    # the l-block pairs (p, q) built, p the column and q the row block, in
    # four rectangles of p and q parities: the two with p - q even fill the
    # slots of parity 0, the two odd ones those of parity 1, the fewer padded
    # with zero pairs.  On the even half the pairs p < cutoff of a rectangle
    # are followed by their mirrors 2 cutoff - p, which are added to them.
    pairs, rectangles = ([], []), []
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):
        ps, qs = range(a, kept, 2), range(b, kept, 2)
        mirrors = [2 * cutoff - x for x in ps if x < cutoff] if even else []
        group = pairs[(a + b) % 2]
        rectangles.append(((a + b) % 2, len(group), ps, qs, len(mirrors) * len(qs)))
        group += [(x, y) for x in [*ps, *mirrors] for y in qs]
    width = max(map(len, pairs))
    p, q = np.zeros((2, 2, width), dtype=int)
    for e, group in enumerate(pairs):
        p[e, : len(group)], q[e, : len(group)] = np.reshape(np.array(group, dtype=int), (-1, 2)).T
    j = np.arange(2)[:, None] + 2 * np.arange(per_parity)  # [parity, k]
    flat, in_stack = stack.reshape(-1, side_sq), np.minimum(j, len(stack) - 1)[:, None]

    def gather(lo):  # R at [e, slot, k, (r_a, r_b)], 0 on the padding slots and past the stack
        values = flat[(in_stack * (2 * side - 1) + lo + p[..., None]) * (2 * side - 1) + lo + q[..., None]]
        values[1, :, -1] = 0.0  # j = 6 cutoff + 1
        for e, group in enumerate(pairs):
            values[e, len(group) :] = 0.0
        return values

    # R over the (m, u) l-block pairs as [e, (slot, r_m, r_u), k], and over
    # the (n, v) ones as [(e, slot), k, (r_n, r_v)]
    rows = gather(lo_row).reshape(2, width, per_parity, side_sq).transpose(0, 1, 3, 2).reshape(2, -1, per_parity)
    cols = gather(lo_col).reshape(2 * width, per_parity, side_sq)
    half_j, gamma = 0.5 * j, gamma_weight_matrix(len(stack) + 1)[j[:, :, None], j[:, None, :]]
    # two buffers, each written while the other one holds the operand
    inner_size, out_size = rows.shape[1] * 2 * batch * per_parity, batch * (kept * side_sq) ** 2
    first, second = np.empty(max(inner_size, out_size)), np.empty(2 * width * side_sq * batch * side_sq)
    inner = first[:inner_size].reshape(2, -1, batch * per_parity)  # [e, (slot, r_m, r_u), (batch, k)]
    blocks = second.reshape(2 * width, side_sq * batch, side_sq)  # [slot, (r_m, r_u, batch), (r_n, r_v)]
    out = first[:out_size].reshape(batch, kept, side, side, kept, side, side)
    # each rectangle, its mirrors added, into the result [batch, q, r_u, r_v, p, r_m, r_n]
    folds, copies = [], []
    for e, start, ps, qs, mirrored in rectangles:
        start, size = e * width + start, len(ps) * len(qs)
        if mirrored:
            folds.append((blocks[start : start + mirrored], blocks[start + size : start + size + mirrored]))
        if size:
            source = blocks[start : start + size].reshape(len(ps), len(qs), side, side, batch, side, side)
            copies.append((out[:, qs[0] :: 2, :, :, ps[0] :: 2], source.transpose(4, 1, 3, 6, 0, 2, 5)))

    def assemble(ratio: np.ndarray) -> np.ndarray:
        # one GEMM R^T W per parity over the batch's weight matrices, then one per slot
        scale = (ratio[:, :, None, None] ** half_j).transpose(0, 2, 3, 1)  # [carrier, e, k, batch]
        weights = scale[0][..., None] * gamma[:, :, None, :] * scale[1].transpose(0, 2, 1)[:, None]
        np.matmul(rows, weights.reshape(2, per_parity, -1), out=inner)
        np.matmul(inner.reshape(2 * width, -1, per_parity), cols, out=blocks)
        for direct, mirrors in folds:
            direct += mirrors
        for target, source in copies:
            np.copyto(target, source)
        return out.reshape(batch, kept * side_sq, kept * side_sq)

    return assemble


@lru_cache(maxsize=None)
def _real_sector(cutoff: int, delta: int) -> tuple:
    # (G, N_m - N_n on each sector entry), both read-only: at one wavelength
    # s_i = 1, so the real block is the same at every t.  With c1 = c2 it is
    # symmetric; the GEMMs keep that bit for bit up to cutoff 4, but the
    # cancelling sum rounds its two triangles apart by up to 3e-10 of the
    # largest entry at cutoff 6, so the mean of both is kept
    block = pair_coupling_assembler(cutoff, 1, delta)(np.ones((2, 1)))[0]
    block = 0.5 * (block + block.T)
    orders = np.subtract(*sector_orders(cutoff, delta))
    for array in (block, orders):
        array.setflags(write=False)
    return block, orders


def sector_coupling(cutoff: int, delta: int, t: float) -> np.ndarray:
    """The coefficient double sum on Delta-l sector delta at one wavelength
    and normalized distance t (`pair_coupling_assembler`'s G with c1 = c2):
    conj(d) G d, G the cached real block, d = e^{i(pi/2 + atan t)(N_m - N_n)}
    on each sector entry (p, r_m, r_n) with exact quarter turns (zeros stay 0)."""
    block, orders = _real_sector(cutoff, delta)
    d = np.array([1, 1j, -1, -1j])[orders % 4] * np.exp(1j * math.atan(t) * orders)
    return np.conj(d)[:, None] * block * d


def coupling_tensor(basis: ModeBasis, z: float, cn2: float, w0: float, wavelength: float) -> CouplingTensor:
    """The full tensor L_{m,n,u,v}(z) (total-rate part excluded) at one
    wavelength (m), sector by sector."""
    t = normalized_distance(z, wavelength, w0)
    rate = COUPLING_PREFACTOR * l_strength(z, cn2, wavelength, w0)
    deltas = range(-2 * basis.cutoff, 2 * basis.cutoff + 1)
    blocks = [rate * sector_coupling(basis.cutoff, d, t) for d in deltas]  # guard before allocating
    side = basis.cutoff + 1
    # entries[m, n, u, v] split into (l-block, radial index) pairs
    entries = np.zeros((2 * side - 1, side) * 4, dtype=complex)
    for delta, block in zip(deltas, blocks):
        lo_row, lo_col, count = sector_blocks(basis.cutoff, delta)
        p, q = np.arange(count)[:, None], np.arange(count)[None, :]
        # [q, r_u, r_v, p, r_m, r_n] -> [p, q, r_m, r_n, r_u, r_v]
        block = block.reshape(count, side, side, count, side, side).transpose(3, 0, 4, 5, 1, 2)
        entries[lo_row + p, :, lo_col + p, :, lo_row + q, :, lo_col + q, :] = block
    return CouplingTensor(basis=basis, entries=entries.reshape((basis.size,) * 4))
