"""An earlier form of `turbulence.integrated_l`, kept as the reference for
its Chebyshev path: every entry's path sum evaluated at that entry, one
power of (1 + s z_k^2) per entry and quadrature node, on the same panels
and nodes, C_n^2 sampled once per rule and the wavelengths recomputed per
call, and each rule's sums taken in a pass of their own.  Where the
Chebyshev degree is not below the number of entries the library sums every
entry too, so there the two agree bit for bit."""
from __future__ import annotations

import math

import numpy as np

from turbulink import turbulence


def path_sums(profile, geom, frequencies=None) -> tuple:
    """(fine, coarse): the PANEL_NODES- and PANEL_NODES // 2-node path sums
    sum_k W_k (1 + s z_k^2)^{5/6} of every entry, without the prefactor."""
    lambda1, lambda2 = _wavelengths(geom, frequencies)
    half_sum = 0.5 * (lambda1 * lambda1 + lambda2 * lambda2)
    beam_area = math.pi * geom.waist**2
    panels = turbulence._panels(profile, geom, beam_area / math.sqrt(float(half_sum.max())))
    return tuple(
        _path_sum(_path_rule(profile, geom, panels, nodes), half_sum / beam_area**2)
        for nodes in (turbulence.PANEL_NODES, turbulence.PANEL_NODES // 2)
    )


def _path_rule(profile, geom, panels, nodes) -> tuple:
    """Nodes z_k and weights x C_n^2(z_k) of one composite Gauss-Legendre
    rule, C_n^2 sampled on that rule's nodes alone."""
    mid, half = panels
    x, w = np.polynomial.legendre.leggauss(nodes)
    z = (mid[:, None] + half[:, None] * x).reshape(-1)
    return z, (half[:, None] * w).reshape(-1) * turbulence.cn2_at(profile, geom, z)


def _path_sum(rule, scale):
    """sum_k weight_k C_n^2(z_k) (1 + scale z_k^2)^{5/6} over one path rule
    (nodes, weights x C_n^2), for every entry of the array `scale`, in row
    blocks of at most CHUNK_ELEMENTS."""
    z, weighted_cn2 = rule
    z2 = z * z
    flat = scale.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, turbulence.CHUNK_ELEMENTS // z.size)
    for start in range(0, flat.size, rows):
        block = flat[start:start + rows, None] * z2
        block += 1.0
        out[start:start + rows] = np.power(block, 5.0 / 6.0, out=block) @ weighted_cn2
    return out.reshape(scale.shape)


def per_entry_integrals(profile, geom, frequencies=None):
    """int_0^{z_f} l(z) dz of every entry, as `integrated_l` returns it."""
    lambda1, lambda2 = _wavelengths(geom, frequencies)
    value = geom.waist ** (5.0 / 3.0) / (lambda1 * lambda2) * path_sums(profile, geom, frequencies)[0]
    return float(value) if value.ndim == 0 else value


def _wavelengths(geom, frequencies) -> tuple:
    if frequencies is None:
        return (np.asarray(float(geom.wavelength)),) * 2
    omega1, omega2 = np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in frequencies))
    return turbulence.two_pi_c_over(omega1), turbulence.two_pi_c_over(omega2)
