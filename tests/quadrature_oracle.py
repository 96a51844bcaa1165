"""General-index quadrature oracles for the LG coupling and free propagation.

The closed-form correlation coefficients c_{m,n,j} of the modal correlation
functions

    W_{m,n} = sum_j c_{m,n,j} (K^2 a / 8)^{j/2} e^{-K^2 a / 8} e^{i(l_m - l_n) phi},

a = (1 + t^2) w_0^2: an LG mode (r, l) is the product of two circular
oscillator states with quanta n+- = r + (|l| +- l)/2 (Nienhuis & Allen, PRA
48, 656 (1993)), and a displacement by K acts on each oscillator
separately, so c_{m,n,.} at t = 0 is the convolution of two one-axis
displaced-Fock matrix elements, sqrt(b!/a!) x0^{(a-b)/2} L_b^{(a-b)}(x0) for
a >= b (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), times the Gouy phase
b^{g_m - g_n}, b = (1 + it)/(1 - it), g = r + |l|/2 (checked itself against
the generating-function extraction of `series_oracle`).  On them rest a
direct quadrature of the defining coupling integral with a small but finite
outer scale (`coupling_numeric_oracle`, extrapolated to the outer-scale-free
limit by `coupling_oracle_extrapolated`), and of the free-propagation
element from the momentum-space LG amplitudes (`free_prop_S_numeric`).  The
library's coupling is built from none of this (`lgmodes.pair_coupling_blocks`);
`cli.run_validate` keeps its own copy of the fundamental tuple's quadratures,
which `tests/test_cli.py` ties to this module's bit for bit.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from turbulink.lgmodes import LGIndex
from turbulink.turbulence import SPECTRUM_AMPLITUDE, normalized_distance, two_pi_c_over

MAX_ORACLE_INDEX = 8


class OracleIndexError(ValueError):
    """Mode index beyond the oracle's supported range."""


def _check_oracle_scale(*indices: LGIndex):
    for idx in indices:
        if idx.r > MAX_ORACLE_INDEX or abs(idx.l) > MAX_ORACLE_INDEX:
            raise OracleIndexError(f"{idx} beyond supported index range {MAX_ORACLE_INDEX}")


def _laguerre_coefficients(n: int, alpha: int) -> np.ndarray:
    """Power-series coefficients of the generalized Laguerre polynomial L_n^(alpha)."""
    return np.array(
        [(-1.0) ** k * math.comb(n + alpha, n - k) / math.factorial(k) for k in range(n + 1)]
    )


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
    # the t = 0 coefficients: one displaced-Fock element per circular axis,
    # convolved, given each mode's quanta n+, n- = r + (|l| +- l) / 2
    _check_oracle_scale(m, n)
    (pm, pn), (qm, qn) = (tuple(i.r + max(s * i.l, 0) for i in (m, n)) for s in (1, -1))
    return (-1.0) ** (m.r + n.r) * np.convolve(_axis_coefficients(pm, pn), _axis_coefficients(qm, qn))


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
