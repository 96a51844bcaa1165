"""Laguerre-Gaussian mode bookkeeping and turbulence coupling tensors.

The scattering integrals need the modal correlation functions
W_{m,n}(K, phi, z): overlaps of two propagated LG modes displaced by a
transverse wavenumber K.  Each W is a finite expansion

    W_{m,n} = sum_j c_{m,n,j} (K^2 a / 8)^{j/2} e^{-K^2 a / 8} e^{i(l_m - l_n) phi}

with a = (1 + t^2) w_0^2 and t = z / z_R.  The c coefficients come from
derivative extraction of a two-parameter generating function; here the
extraction is done with truncated bivariate series arithmetic, so every
coefficient is exact up to float rounding.

Radially integrating W W* against the von Karman spectrum (outer scale sent
to zero, the divergent total-rate piece cancelled analytically) leaves a
Gamma-function sum over coefficient pairs; that is `coupling_strength`.  A
direct quadrature of the defining integral with a small but finite outer
scale is kept alongside as an oracle for tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mathcore import TruncatedBivariateSeries, gamma_fn, series_product
from .turbulence import (
    SPECTRUM_AMPLITUDE,
    SPEED_OF_LIGHT,
    SpectrumParams,
    big_l_t,
    l_cross,
    l_strength,
)

MAX_ORACLE_INDEX = 8

# k^2 * (radial integral constant): the closed-form coupling reads
# COUPLING_PREFACTOR * l(z) * sum_{j1 j2} 2^{-(j1+j2)/2} Gamma((j1+j2)/2 - 5/6) c c*
COUPLING_PREFACTOR = SPECTRUM_AMPLITUDE * 16.0 * math.pi**4 * 2.0 ** (-8.0 / 3.0)  # = 8.1000...

# fundamental-mode decay rate is DECAY_CONSTANT * l(z)
DECAY_CONSTANT = COUPLING_PREFACTOR * abs(math.gamma(-5.0 / 6.0))  # = 54.100...


class OracleIndexError(ValueError):
    """Mode index beyond the supported extraction range."""


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

    Ordering is l ascending then r ascending, fixed so that superoperator
    layouts are reproducible across runs and platforms.
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


def _inv_one_minus_d1d2(power: int, max_i: int, max_j: int) -> TruncatedBivariateSeries:
    # (1 - d1 d2)^{-power}: diagonal binomial coefficients
    out = TruncatedBivariateSeries.zero(max_i, max_j)
    for k in range(min(max_i, max_j) + 1):
        out.coeff[k, k] = math.comb(power - 1 + k, k)
    return out


def _binomial_axis(value: complex, power: int, axis: int, max_i: int, max_j: int) -> TruncatedBivariateSeries:
    # (1 - value * d)^power along d1 (axis 0) or d2 (axis 1), power >= 0
    out = TruncatedBivariateSeries.zero(max_i, max_j)
    top = max_i if axis == 0 else max_j
    for k in range(min(power, top) + 1):
        coeff = math.comb(power, k) * (-value) ** k
        if axis == 0:
            out.coeff[k, 0] = coeff
        else:
            out.coeff[0, k] = coeff
    return out


@lru_cache(maxsize=100_000)
def _c_coefficients_cached(r1: int, l1: int, r2: int, l2: int, t: float) -> tuple:
    L1, L2 = abs(l1), abs(l2)
    theta = math.atan(t)
    b = complex(math.cos(2 * theta), math.sin(2 * theta))  # (1 + it)/(1 - it)
    pair_max = (L1 + L2 - abs(l1 - l2)) // 2

    j_top = 2 * (r1 + r2) + L1 + L2
    coeffs = np.zeros(j_top + 1, dtype=complex)

    norm = math.sqrt(
        1.0
        / (
            math.factorial(r1)
            * math.factorial(r1 + L1)
            * math.factorial(r2)
            * math.factorial(r2 + L2)
        )
    )
    kappa = (1j) ** (L1 + L2) * np.exp(1j * theta * (L1 - L2)) * norm
    extraction_scale = math.factorial(r1) * math.factorial(r2)

    # psi carries the d-dependence of the shared Gaussian exponent:
    # exp(-X) = e^{-x0} exp(x0 * psi),  psi = (b d1 + d2/b - 2 d1 d2) / (1 - d1 d2)
    psi_num = TruncatedBivariateSeries.from_terms(
        {(1, 0): b, (0, 1): 1.0 / b, (1, 1): -2.0}, r1, r2
    )
    psi = series_product(psi_num, _inv_one_minus_d1d2(1, r1, r2))

    for s in range(pair_max + 1):
        base = series_product(
            _binomial_axis(b, L2 - s, 0, r1, r2),
            _binomial_axis(1.0 / b, L1 - s, 1, r1, r2),
        )
        base = series_product(base, _inv_one_minus_d1d2(L1 + L2 - s + 1, r1, r2))
        pair_count = (
            math.factorial(L1)
            * math.factorial(L2)
            / (math.factorial(s) * math.factorial(L1 - s) * math.factorial(L2 - s))
        )
        term_scale = kappa * (-1.0) ** s * pair_count * extraction_scale
        series = base
        for p in range(r1 + r2 + 1):
            j = L1 + L2 - 2 * s + 2 * p
            coeffs[j] += term_scale * series.coeff[r1, r2]
            if p < r1 + r2:
                series = series_product(series, psi).scaled(1.0 / (p + 1))
    return tuple(coeffs)


def c_coefficients(m: LGIndex, n: LGIndex, t: float) -> np.ndarray:
    """Correlation-function coefficients c_{m,n,j} at normalized distance t.

    Returns the dense j-array (length 2(r_m + r_n) + |l_m| + |l_n| + 1);
    entries with j of the opposite parity to |l_m| + |l_n| are exactly zero.
    """
    _check_oracle_scale(m, n)
    return np.array(_c_coefficients_cached(m.r, m.l, n.r, n.l, float(t)), dtype=complex)


@dataclass(frozen=True)
class CoeffTable:
    """All c_{m,n,j} arrays for one basis at one normalized distance."""

    basis: ModeBasis
    t: float

    def slice(self, m: LGIndex, n: LGIndex) -> np.ndarray:
        return c_coefficients(m, n, self.t)

    def get(self, m: LGIndex, n: LGIndex, j: int) -> complex:
        values = self.slice(m, n)
        return complex(values[j]) if j < len(values) else 0.0


def overlap_W(m: LGIndex, n: LGIndex, K: float, phi: float, z: float, w0: float, wavelength: float) -> complex:
    """Modal correlation function W_{m,n}(K, phi, z) via the coefficient expansion."""
    _check_oracle_scale(m, n)
    z_r = math.pi * w0**2 / wavelength
    t = z / z_r
    a = (1.0 + t * t) * w0**2
    x0 = K * K * a / 8.0
    coeffs = c_coefficients(m, n, t)
    js = np.arange(len(coeffs))
    radial = np.sum(coeffs * x0 ** (0.5 * js)) * math.exp(-x0)
    return complex(radial * np.exp(1j * (m.l - n.l) * phi))


def lg_momentum_amplitude(idx: LGIndex, K, phi, t: float, w0: float):
    """Momentum-space LG amplitude G(K, phi) at normalized distance t.

    Normalized so that int |G|^2 d^2K / 4 pi^2 = 1.  K is the physical
    transverse wavenumber (1/m); scalar or array inputs broadcast.
    """
    _check_oracle_scale(idx)
    r, l = idx.r, idx.l
    L = abs(l)
    max_p = r

    # series in the radial generating parameter d, coefficients in kappa^2
    one = TruncatedBivariateSeries.constant(1.0, r, 0)
    inv_1pd = TruncatedBivariateSeries.zero(r, 0)
    for k in range(r + 1):
        inv_1pd.coeff[k, 0] = (-1.0) ** k
    base = one
    for _ in range(L + 1):
        base = series_product(base, inv_1pd)

    # Omega/(4(1+d)) with Omega = (1-d) - i t (1+d); subtract its d=0 value
    omega_series = TruncatedBivariateSeries.from_terms(
        {(0, 0): (1.0 - 1j * t) / 4.0, (1, 0): (-1.0 - 1j * t) / 4.0}, r, 0
    )
    s_series = series_product(omega_series, inv_1pd)
    s0 = complex(s_series.coeff[0, 0])
    delta = TruncatedBivariateSeries(r, 0, s_series.coeff.copy())
    delta.coeff[0, 0] = 0.0

    # d^r coefficient of base * (-Delta)^p / p!  for each power of kappa^2
    poly = np.zeros(max_p + 1, dtype=complex)
    series = base
    for p in range(max_p + 1):
        poly[p] = series.coeff[r, 0]
        if p < max_p:
            series = series_product(series, delta).scaled(-1.0 / (p + 1))

    norm = math.sqrt(
        math.factorial(r) * 2.0 ** (L + 1) / (math.pi * math.factorial(r + L))
    )
    K = np.asarray(K, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    kappa = w0 * K
    y = kappa * kappa
    radial_poly = np.zeros(np.broadcast(K, phi_arr).shape, dtype=complex)
    for p in range(max_p, -1, -1):
        radial_poly = radial_poly * y + poly[p]
    value = (
        w0
        * norm
        * math.pi
        * (0.5j * kappa) ** L
        * np.exp(1j * l * phi_arr)
        * np.exp(-y * s0)
        * radial_poly
    )
    return complex(value) if value.ndim == 0 else value


def overlap_W_numeric(
    m: LGIndex, n: LGIndex, K: float, phi: float, z: float, w0: float,
    wavelength: float, grid_points: int = 121, grid_halfwidth: float = 9.0,
) -> complex:
    """Oracle evaluation of W_{m,n} by direct 2D convolution of momentum amplitudes.

    W(K) = int G_m(K1) G_n*(K1 - K) d^2K1 / 4 pi^2 on a trapezoid grid; the
    Gaussian decay of the amplitudes makes the trapezoid rule spectrally
    accurate once the grid covers the support.
    """
    z_r = math.pi * w0**2 / wavelength
    t = z / z_r
    half = grid_halfwidth * math.sqrt(1.0 + t * t) / w0
    axis = np.linspace(-half, half, grid_points)
    step = axis[1] - axis[0]
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    k_r = np.hypot(kx, ky)
    k_phi = np.arctan2(ky, kx)
    shifted_x = kx - K * math.cos(phi)
    shifted_y = ky - K * math.sin(phi)
    s_r = np.hypot(shifted_x, shifted_y)
    s_phi = np.arctan2(shifted_y, shifted_x)
    values = lg_momentum_amplitude(m, k_r, k_phi, t, w0) * np.conj(
        lg_momentum_amplitude(n, s_r, s_phi, t, w0)
    )
    return complex(values.sum() * step * step / (4.0 * math.pi**2))


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


def _coefficient_sum(c1: np.ndarray, c2: np.ndarray) -> complex:
    weights = gamma_weight_matrix(max(len(c1), len(c2)))
    n1, n2 = len(c1), len(c2)
    return complex(c1 @ weights[:n1, :n2] @ np.conj(c2))


def coupling_strength(
    m: LGIndex,
    n: LGIndex,
    u: LGIndex,
    v: LGIndex,
    z: float,
    cn2: float,
    w0: float,
    frequencies,
    include_total_rate: bool = False,
    spectrum: SpectrumParams | None = None,
) -> complex:
    """Turbulence coupling tensor element L_{m,n,u,v}(z).

    frequencies: a single wavelength (m) or an angular-frequency pair
    (omega1, omega2) in rad/s for cross-frequency coherences.

    By default the divergent total-rate part delta_mu delta_nv L_T is left
    out (it cancels identically in the propagation equations); pass
    include_total_rate=True with a SpectrumParams to add it back for
    diagnostics against the finite-outer-scale oracle.
    """
    if m.l - u.l != n.l - v.l:
        finite = 0j
    elif isinstance(frequencies, tuple):
        omega1, omega2 = frequencies
        lam1 = 2.0 * math.pi * SPEED_OF_LIGHT / omega1
        lam2 = 2.0 * math.pi * SPEED_OF_LIGHT / omega2
        t1 = lam1 * z / (math.pi * w0**2)
        t2 = lam2 * z / (math.pi * w0**2)
        a1 = (1.0 + t1 * t1) * w0**2
        a2 = (1.0 + t2 * t2) * w0**2
        a_mean = 0.5 * (a1 + a2)
        c1 = c_coefficients(m, u, t1) * (a1 / a_mean) ** (0.5 * np.arange(2 * (m.r + u.r) + abs(m.l) + abs(u.l) + 1))
        c2 = c_coefficients(n, v, t2) * (a2 / a_mean) ** (0.5 * np.arange(2 * (n.r + v.r) + abs(n.l) + abs(v.l) + 1))
        finite = COUPLING_PREFACTOR * l_cross(z, omega1, omega2, cn2, w0) * _coefficient_sum(c1, c2)
    else:
        wavelength = float(frequencies)
        t = wavelength * z / (math.pi * w0**2)
        c1 = c_coefficients(m, u, t)
        c2 = c_coefficients(n, v, t)
        finite = COUPLING_PREFACTOR * l_strength(z, cn2, wavelength, w0) * _coefficient_sum(c1, c2)

    if include_total_rate:
        if spectrum is None:
            raise ValueError("include_total_rate requires SpectrumParams")
        if m == u and n == v:
            if isinstance(frequencies, tuple):
                lam1 = 2.0 * math.pi * SPEED_OF_LIGHT / frequencies[0]
                lam2 = 2.0 * math.pi * SPEED_OF_LIGHT / frequencies[1]
            else:
                lam1 = lam2 = float(frequencies)
            finite += big_l_t(lam1, lam2, cn2, spectrum)
    return finite


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
        omega1, omega2 = frequencies
        lam1 = 2.0 * math.pi * SPEED_OF_LIGHT / omega1
        lam2 = 2.0 * math.pi * SPEED_OF_LIGHT / omega2
    else:
        lam1 = lam2 = float(frequencies)
    t1 = lam1 * z / (math.pi * w0**2)
    t2 = lam2 * z / (math.pi * w0**2)
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

    entries[a, b, c, d] = L_{m_a, n_b, u_c, v_d} with the total-rate part
    excluded (total_rate holds the would-be delta-delta coefficient for a
    given outer scale, or None when no spectrum was supplied).
    """

    basis: ModeBasis
    z: float
    entries: np.ndarray
    total_rate: float | None = None


def coefficient_stack(basis: ModeBasis, t: float) -> np.ndarray:
    """c_{m,u,j} for all basis pairs as an array of shape (j_count, size, size)."""
    size = basis.size
    j_count = 4 * basis.cutoff + 2 * basis.cutoff + 1
    stack = np.zeros((j_count, size, size), dtype=complex)
    for a, m in enumerate(basis.indices):
        for b, u in enumerate(basis.indices):
            values = c_coefficients(m, u, t)
            stack[: len(values), a, b] = values
    return stack


def selection_mask(basis: ModeBasis) -> np.ndarray:
    """Boolean mask sel[a, b, c, d] for the azimuthal rule l_m - l_u = l_n - l_v
    (indices ordered m, u, n, v)."""
    ls = np.array([idx.l for idx in basis.indices])
    diff = ls[:, None] - ls[None, :]
    return diff[:, :, None, None] == diff[None, None, :, :]


def pair_tensor(basis: ModeBasis, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Selection-masked coefficient double sum over two coefficient stacks.

    left and right are (j_count, size, size) stacks, or the same flattened
    to (j_count, size^2); returns T[m, u, n, v] =
    sum_{j1 j2} left[j1, m, u] M[j1, j2] right[j2, n, v] with M the Gamma
    weights, zeroed where the azimuthal rule fails.  The single-frequency
    tensor passes (stack, conj(stack)); dressed stacks give the
    cross-frequency one.
    """
    size = basis.size
    left = left.reshape(left.shape[0], size * size)
    right = right.reshape(right.shape[0], size * size)
    pairs = left.T @ gamma_weight_matrix(left.shape[0]) @ right  # [(m,u), (n,v)]
    tensor = pairs.reshape(size, size, size, size)
    tensor *= selection_mask(basis)
    return tensor


def coupling_tensor(
    basis: ModeBasis,
    z: float,
    cn2: float,
    w0: float,
    wavelength: float,
    spectrum: SpectrumParams | None = None,
) -> CouplingTensor:
    """Assemble the full tensor (total-rate part excluded) at distance z.

    With a SpectrumParams the would-be delta-delta total rate for that outer
    scale is reported in total_rate (it is never added to the entries).
    """
    t = z * wavelength / (math.pi * w0**2)
    stack = coefficient_stack(basis, t)
    tensor = pair_tensor(basis, stack, np.conj(stack))
    tensor *= COUPLING_PREFACTOR * l_strength(z, cn2, wavelength, w0)
    rate = None if spectrum is None else big_l_t(wavelength, wavelength, cn2, spectrum)
    # reorder (m, u, n, v) -> (m, n, u, v)
    return CouplingTensor(
        basis=basis, z=z, entries=np.transpose(tensor, (0, 2, 1, 3)), total_rate=rate
    )
