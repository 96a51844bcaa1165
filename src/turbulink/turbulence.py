"""Turbulence strength along a curved-Earth path and the scalar decay densities.

The von Karman spectrum fixes the scattering-rate normalization; the decay
density l(z) (and its two-frequency generalization) is the only turbulence
input the propagation equations need once the outer-scale counter term has
been cancelled analytically.

Path integrals of the decay density use one composite Gauss-Legendre rule in
z: 16 nodes per panel, panels no wider than the smallest pair Rayleigh range
up to GRADING of them and graded geometrically beyond, plus a panel edge
wherever the chord crosses a height of a tabulated profile (the log-log
interpolation has a kink there).  C_n^2 is sampled once on the nodes and the
whole set of frequency pairs is one broadcast, since the integrand depends
on a pair only through lambda1 lambda2 and lambda1^2 + lambda2^2.  The
8-node rule on the same panels gives the error estimate.

Note on the total-rate constant: evaluating k1 k2 * int Phi d^2K / 4 pi^2
with the von Karman density gives 30.86 C_n^2 / (lambda1 lambda2 kappa_0^{5/3});
the rate carries lambda^{-2}, not lambda^{+2} (dimensionally it must be an
inverse length).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

SPECTRUM_AMPLITUDE = 0.033  # Kolmogorov spectral constant in the von Karman density
EARTH_RADIUS_M = 6.371e6
CN2_MIN = 1e-19
CN2_MAX = 1e-11

# k1 k2 * int Phi(K) d^2K / 4 pi^2 = TOTAL_RATE_CONSTANT * C_n^2 / (l1 l2 kappa_0^{5/3})
TOTAL_RATE_CONSTANT = SPECTRUM_AMPLITUDE * 0.6 * 16.0 * math.pi**4  # = 30.857...

PANEL_NODES = 16  # Gauss-Legendre nodes per path panel; the estimate uses half
GRADING = 8  # panels past GRADING Rayleigh ranges are 1/GRADING of their start wide
RELATIVE_ERROR_BOUND = 1e-6
CHUNK_ELEMENTS = 1 << 13  # (pairs x nodes) block of the broadcast, 64 KB of float64

SPEED_OF_LIGHT = 299792458.0


def two_pi_c_over(x):
    """2 pi c / x: the wavelength (m) of angular frequency x (rad/s), or the
    angular frequency of wavelength x; arrays broadcast."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / x


class ProfileError(ValueError):
    """Malformed turbulence profile (bad table or file)."""


class QuadratureError(RuntimeError):
    """Path quadrature error estimate above the relative bound."""


@dataclass(frozen=True)
class LinkGeometry:
    """Propagation path and beam parameters.

    path_length: link distance z_f (m)
    transmitter_height / receiver_height: endpoint heights above sea level (m)
    waist: beam waist w_0 at the transmitter (m)
    wavelength: carrier wavelength (m)
    """

    path_length: float
    transmitter_height: float
    receiver_height: float
    waist: float
    wavelength: float
    earth_radius: float = EARTH_RADIUS_M

    def __post_init__(self):
        if self.path_length <= 0:
            raise ValueError("path_length must be positive")
        if self.transmitter_height <= 0 or self.receiver_height <= 0:
            raise ValueError("endpoint heights must be positive")
        if self.waist <= 0 or self.wavelength <= 0:
            raise ValueError("waist and wavelength must be positive")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength


def normalized_distance(z, wavelength, waist):
    """t = z / z_R = lambda z / (pi w0^2), the distance in Rayleigh ranges."""
    return wavelength * z / (math.pi * waist**2)


@dataclass(frozen=True)
class SpectrumParams:
    """Outer-scale wavenumber kappa_0 (1/m) of the von Karman spectrum."""

    kappa_0: float = 1.0

    def __post_init__(self):
        if self.kappa_0 <= 0:
            raise ValueError("kappa_0 must be positive")


@dataclass(frozen=True)
class TurbulenceProfile:
    """Structure-constant profile: either constant or tabulated in height.

    Tabulated profiles interpolate log(C_n^2) linearly in height and clamp
    at the table ends; C_n^2 near the surface spans orders of magnitude, so
    linear interpolation of the raw value would be badly biased.
    """

    constant: float | None = None
    table: tuple = field(default=())  # ((height_m, cn2), ...) with increasing heights

    @classmethod
    def from_constant(cls, cn2: float) -> "TurbulenceProfile":
        _check_cn2(cn2, allow_zero=True)
        return cls(constant=cn2)

    @property
    def is_zero(self) -> bool:
        return self.constant == 0.0

    @cached_property
    def log_table(self) -> tuple:
        """(log heights, log C_n^2) of the table, built once per profile."""
        if not self.table:
            raise ProfileError("empty turbulence profile")
        return np.log([h for h, _ in self.table]), np.log([c for _, c in self.table])

    @classmethod
    def from_table(cls, points) -> "TurbulenceProfile":
        points = tuple((float(h), float(c)) for h, c in points)
        if len(points) < 2:
            raise ProfileError("tabulated profile needs at least 2 points")
        heights = [h for h, _ in points]
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise ProfileError("profile heights must be strictly increasing")
        if heights[0] <= 0:
            raise ProfileError(
                f"profile height {heights[0]} m must be > 0 (heights are log-interpolated)"
            )
        for _, c in points:
            _check_cn2(c)
        return cls(table=points)

    @classmethod
    def from_csv(cls, path) -> "TurbulenceProfile":
        """Read a two-column `height_m,cn2` CSV with a header row."""
        points = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1:
                    if [c.strip() for c in row[:2]] != ["height_m", "cn2"]:
                        raise ProfileError(
                            f"{path}: line 1: expected header 'height_m,cn2'"
                        )
                    continue
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) < 2:
                    raise ProfileError(f"{path}: line {lineno}: expected 2 columns")
                try:
                    points.append((float(row[0]), float(row[1])))
                except ValueError as exc:
                    raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
        try:
            return cls.from_table(points)
        except ProfileError as exc:
            raise ProfileError(f"{path}: {exc}") from exc


def _check_cn2(cn2: float, allow_zero: bool = False):
    # exactly zero switches turbulence off (constant profiles only)
    if allow_zero and cn2 == 0.0:
        return
    if not (CN2_MIN <= cn2 <= CN2_MAX):
        raise ProfileError(f"C_n^2 value {cn2} outside [{CN2_MIN}, {CN2_MAX}] m^-2/3")


def path_height(geom: LinkGeometry, z):
    """Height above the sea surface of the straight chord at path position z
    (a float, or an array of positions).

    The endpoints sit at their stated heights over a sphere of radius
    earth_radius; the beam travels the straight chord between them (no
    refractive bending), so mid-path points lose the sagitta relative to the
    endpoint heights.
    """
    z = np.asarray(z, dtype=float)
    outside = (z < 0) | (z > geom.path_length)
    if np.any(outside):
        raise ValueError(f"z={z[outside].flat[0]} outside path [0, {geom.path_length}]")
    ax, dx, dy = _chord(geom)
    s = z / geom.path_length
    return np.hypot(ax + s * dx, s * dy) - geom.earth_radius


def _chord(geom: LinkGeometry) -> tuple:
    """Transmitter x-coordinate A and chord vector D = B - A (the Earth's
    centre at the origin, the transmitter on the x-axis)."""
    r_tx = geom.earth_radius + geom.transmitter_height
    r_rx = geom.earth_radius + geom.receiver_height
    cos_phi = (r_tx**2 + r_rx**2 - geom.path_length**2) / (2.0 * r_tx * r_rx)
    cos_phi = min(1.0, cos_phi)
    sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi**2))
    return r_tx, r_rx * cos_phi - r_tx, r_rx * sin_phi


def _table_cn2(profile: TurbulenceProfile, geom: LinkGeometry, z):
    """Tabulated C_n^2 at the chord height(s) of path position(s) z, clamped
    at the table ends."""
    log_heights, log_cn2 = profile.log_table
    log_height = np.log(np.maximum(path_height(geom, z), 1e-12))
    return np.exp(np.interp(log_height, log_heights, log_cn2))


def cn2_at(profile: TurbulenceProfile, geom: LinkGeometry, z):
    """C_n^2 at path position(s) z (constant, or interpolated at the chord
    height); a constant profile gives its constant for any z.

    Tabulated profiles interpolate log C_n^2 linearly in log height (surface
    profiles are power-law-like, straight lines on that scale), clamped at
    the table ends.
    """
    if profile.constant is not None:
        return profile.constant
    return _table_cn2(profile, geom, z)


def big_l_t(lambda1: float, lambda2: float, cn2: float, sp: SpectrumParams) -> float:
    """Total scattering rate k1 k2 int Phi(K) d^2K / 4 pi^2 (units 1/m).

    Diverges like kappa_0^{-5/3} as the outer scale grows; the coupling
    tensor cancels it analytically, so this value only appears on its own in
    diagnostics and oracle tests.
    """
    return TOTAL_RATE_CONSTANT * cn2 / (lambda1 * lambda2) * sp.kappa_0 ** (-5.0 / 3.0)


def l_strength(z: float, cn2: float, wavelength: float, waist: float) -> float:
    """Single-wavelength decay density l(z) (the fundamental-mode loss rate
    is 54.1 * l(z) in the pure-decay regime)."""
    t = normalized_distance(z, wavelength, waist)
    return cn2 / wavelength**2 * waist ** (5.0 / 3.0) * (1.0 + t * t) ** (5.0 / 6.0)


def l_cross(z: float, omega1: float, omega2: float, cn2: float, waist: float) -> float:
    """Two-frequency decay density for coherences between omega1 and omega2.

    Reduces exactly to l_strength when the frequencies coincide; the beam
    spreading of the two wavelengths enters through the mean of their
    squared normalized distances.
    """
    if np.any(omega1 <= 0) or np.any(omega2 <= 0):
        raise ValueError("frequencies must be positive")
    lambda1, lambda2 = two_pi_c_over(omega1), two_pi_c_over(omega2)
    t1, t2 = normalized_distance(z, lambda1, waist), normalized_distance(z, lambda2, waist)
    bracket = 1.0 + 0.5 * t1 * t1 + 0.5 * t2 * t2
    return cn2 / (lambda1 * lambda2) * waist ** (5.0 / 3.0) * bracket ** (5.0 / 6.0)


def integrated_l(
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    frequencies: float | tuple | None = None,
) -> float | np.ndarray:
    """Path integral of the decay density, int_0^{z_f} l(z) dz (dimensionless).

    frequencies:
      None          -> use geom.wavelength (single-wavelength l)
      float         -> that wavelength (m)
      (w1, w2)      -> two-frequency l for the angular-frequency pair (rad/s);
                       arrays broadcast and give an array of integrals
    """
    if frequencies is None:
        frequencies = geom.wavelength
    if isinstance(frequencies, tuple):
        omega1, omega2 = np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in frequencies))
        if np.any(omega1 <= 0) or np.any(omega2 <= 0):
            raise ValueError("frequencies must be positive")
        lambda1, lambda2 = two_pi_c_over(omega1), two_pi_c_over(omega2)
    else:
        lambda1 = lambda2 = np.asarray(float(frequencies))
    # l(z) = C_n^2(z) w^{5/3} / (lambda1 lambda2) * (1 + half_sum (z / pi w^2)^2)^{5/6}
    half_sum = 0.5 * (lambda1 * lambda1 + lambda2 * lambda2)
    beam_area = math.pi * geom.waist**2
    rayleigh = beam_area / math.sqrt(float(np.max(half_sum)))
    fine, coarse = (
        _path_sum(profile, geom, rayleigh, nodes, half_sum / beam_area**2)
        for nodes in (PANEL_NODES, PANEL_NODES // 2)
    )
    estimate = np.abs(fine - coarse)
    if np.any(estimate > RELATIVE_ERROR_BOUND * np.abs(fine)):
        worst = np.argmax(estimate - RELATIVE_ERROR_BOUND * np.abs(fine))
        raise QuadratureError(
            f"path integral did not converge (value={fine.flat[worst]}, "
            f"error estimate={estimate.flat[worst]})"
        )
    value = geom.waist ** (5.0 / 3.0) / (lambda1 * lambda2) * fine
    return float(value) if value.ndim == 0 else value


def _path_sum(profile, geom, rayleigh, nodes, scale):
    """sum_k weight_k C_n^2(z_k) (1 + scale z_k^2)^{5/6} over the path rule,
    for every entry of `scale`, in row blocks of at most CHUNK_ELEMENTS."""
    z, weighted_cn2 = _path_rule(profile, geom, rayleigh, nodes)
    z2 = z * z
    flat = scale.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, CHUNK_ELEMENTS // z.size)
    for start in range(0, flat.size, rows):
        block = flat[start:start + rows, None] * z2
        block += 1.0
        out[start:start + rows] = np.power(block, 5.0 / 6.0, out=block) @ weighted_cn2
    return out.reshape(scale.shape)


def _path_rule(profile, geom, rayleigh, nodes):
    """Nodes z_k and weights x C_n^2(z_k) of the composite Gauss-Legendre rule.

    Panels are at most `rayleigh` wide up to GRADING * rayleigh and grow
    geometrically by 1 + 1/GRADING beyond (the decay density is smooth on
    the scale z there); a tabulated profile adds an edge at every crossing
    of a table height.
    """
    length = geom.path_length
    uniform_end = min(length, GRADING * rayleigh)
    graded = math.ceil(math.log(length / uniform_end) / math.log1p(1.0 / GRADING))
    edges = np.concatenate([
        np.linspace(0.0, uniform_end, math.ceil(uniform_end / rayleigh) + 1),
        np.geomspace(uniform_end, length, graded + 1)[1:],
    ])
    if profile.constant is None:
        edges = np.union1d(edges, _table_crossings(profile, geom))
    x, w = _legendre(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    z = (mid[:, None] + half[:, None] * x).reshape(-1)
    weights = (half[:, None] * w).reshape(-1)
    if profile.constant is not None:
        return z, weights * profile.constant
    return z, weights * _table_cn2(profile, geom, z)


def _table_crossings(profile, geom) -> np.ndarray:
    """Path positions where the chord crosses a table height h_k: the roots
    s in (0, 1) of |A + s D|^2 = (R + h_k)^2, times the path length."""
    ax, dx, dy = _chord(geom)
    heights = np.array([h for h, _ in profile.table])
    a = dx * dx + dy * dy
    b = 2.0 * ax * dx
    # |A|^2 - (R + h_k)^2 without cancelling two squares of the Earth radius
    c = (geom.transmitter_height - heights) * (ax + geom.earth_radius + heights)
    disc = b * b - 4.0 * a * c
    root = np.sqrt(disc[disc >= 0.0])
    q = -0.5 * (b + np.copysign(root, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.concatenate([q / a, c[disc >= 0.0] / q])
    return s[(s > 0.0) & (s < 1.0)] * geom.path_length


@lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple:
    return np.polynomial.legendre.leggauss(nodes)
