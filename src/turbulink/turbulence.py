"""Turbulence strength along a curved-Earth path and the scalar decay densities.

The von Karman spectrum fixes the scattering-rate normalization; the decay
density l(z) (and its two-frequency generalization) is the only turbulence
input the propagation equations need once the outer-scale counter term has
been cancelled analytically.

Path integrals of the decay density use one composite Gauss-Legendre rule in
z: 16 nodes per panel, panels no wider than the smallest pair Rayleigh range
up to GRADING of them and graded geometrically beyond, plus a panel edge
wherever the chord crosses a height of a tabulated profile (the log-log
interpolation has a kink there).  The 8-node rule on the same panels gives
the error estimate; C_n^2 is sampled on both rules' nodes in one call.  A
single-wavelength integral does all but its sums in Python floats.

A frequency pair enters the path sum only through
s = (lambda1^2 + lambda2^2) / 2 / (pi w0^2)^2, its prefactor
1 / (lambda1 lambda2) applied afterwards, so each rule's sum
F(s) = sum_k W_k (1 + s z_k^2)^{5/6} is one smooth function of s.  A set of
pairs samples F at n Chebyshev points on [s_min, s_max] and carries it to
every pair with one barycentric matrix (Berrut & Trefethen, SIAM Rev. 46,
2004); n (`_chebyshev_degree`) and the matrix depend on the frequencies
alone.  Where n is not below the number of entries each entry is summed
directly.  A pair set's wavelengths, half-sums, products lambda1 lambda2
and transfer matrix come from `pair_constants`, uncached; a kernel passes
`integrated_l` the set that its cached source grid keeps (`temporal`).

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
from typing import NamedTuple

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
CHUNK_ELEMENTS = 1 << 13  # (points in s x fine-rule nodes) of a path-sum block, 64 KB of float64
UNIT_ROUNDOFF = 2.0**-53  # the interpolation error the Chebyshev degree aims at

SPEED_OF_LIGHT = 299792458.0
TRAD_S = 1e12  # rad/s in one T rad/s, the frequency unit of configs and CSVs


def extinction_depth(extinction_per_km, distance):
    """Optical depth kappa L / 1000 of a flat extinction kappa (1/km) over a
    distance L (m); refuses a kappa that is negative or not finite."""
    if not 0 <= extinction_per_km < math.inf:  # NaN fails
        raise ValueError(f"extinction_per_km must be finite and >= 0, got {extinction_per_km!r}")
    return extinction_per_km * distance / 1000.0


def two_pi_c_over(x):
    """2 pi c / x: the wavelength (m) of angular frequency x (rad/s), or the
    angular frequency of wavelength x; arrays broadcast."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / x


def _positive_finite(*values) -> bool:
    """True when every entry of every value lies in (0, inf); NaN fails (scalars skip numpy)."""
    return all(((0 < v) & (v < math.inf)).all() if isinstance(v, np.ndarray) else 0 < v < math.inf for v in values)


def _check_index(name: str, value, signed: bool = False):
    """Refuse a mode index, count or cutoff that is not an int, or is
    negative unless `signed` (a bool is refused too: it would read as mode 0
    or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (value < 0 and not signed):
        raise ValueError(f"{name} must be a{'n' if signed else ' non-negative'} int, not {value!r}")


def _check_member(name: str, value, kind: type):
    """Refuse a value that is not a member of the Enum `kind` (a string would
    compare unequal to every member and run as the caller's fallback)."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__} member, not {value!r}")


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

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _positive_finite(value):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength


def normalized_distance(z, wavelength, waist):
    """t = z / z_R = lambda z / (pi w0^2), the distance in Rayleigh ranges."""
    return wavelength * z / (math.pi * waist**2)


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
        if not all(map(math.isfinite, heights)):
            raise ProfileError("profile heights must be finite")
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
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
        except (OSError, UnicodeDecodeError) as exc:
            raise ProfileError(f"cannot read profile {path}: {exc}") from None
        points = []
        for lineno, row in enumerate(rows, start=1):
            if lineno == 1:
                if [c.strip() for c in row[:2]] != ["height_m", "cn2"]:
                    raise ProfileError(f"{path}: line 1: expected header 'height_m,cn2'")
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
    EARTH_RADIUS_M; the beam travels the straight chord between them (no
    refractive bending), so mid-path points lose the sagitta relative to the
    endpoint heights.
    """
    z = np.asarray(z, dtype=float)
    outside = (z < 0) | (z > geom.path_length)
    if outside.any():
        raise ValueError(f"z={z[outside].flat[0]} outside path [0, {geom.path_length}]")
    ax, dx, dy = _chord(geom)
    s = z / geom.path_length
    return np.hypot(ax + s * dx, s * dy) - EARTH_RADIUS_M


def _chord(geom: LinkGeometry) -> tuple:
    """Transmitter x-coordinate A and chord vector D = B - A (the Earth's
    centre at the origin, the transmitter on the x-axis)."""
    r_tx = EARTH_RADIUS_M + geom.transmitter_height
    r_rx = EARTH_RADIUS_M + geom.receiver_height
    cos_phi = (r_tx**2 + r_rx**2 - geom.path_length**2) / (2.0 * r_tx * r_rx)
    cos_phi = min(1.0, cos_phi)
    sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi**2))
    return r_tx, r_rx * cos_phi - r_tx, r_rx * sin_phi


def cn2_at(profile: TurbulenceProfile, geom: LinkGeometry, z):
    """C_n^2 at path position(s) z (constant, or interpolated at the chord
    height); a constant profile gives its constant for any z.

    Tabulated profiles interpolate log C_n^2 linearly in log height (surface
    profiles are power-law-like, straight lines on that scale), clamped at
    the table ends.
    """
    if profile.constant is not None:
        return profile.constant
    log_heights, log_cn2 = profile.log_table
    log_height = np.log(np.maximum(path_height(geom, z), 1e-12))
    return np.exp(np.interp(log_height, log_heights, log_cn2))


def big_l_t(lambda1: float, lambda2: float, cn2: float, kappa_0: float) -> float:
    """Total scattering rate k1 k2 int Phi(K) d^2K / 4 pi^2 (units 1/m) of
    the von Karman spectrum with outer-scale wavenumber kappa_0 (1/m).

    Diverges like kappa_0^{-5/3} as the outer scale grows; the coupling
    tensor cancels it analytically, so this value only appears on its own in
    diagnostics and oracle tests.  Refuses a wavelength or kappa_0 that is
    not positive and finite, and a C_n^2 outside the profile range (0 allowed).
    """
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2), ("kappa_0", kappa_0)):
        if not _positive_finite(value):
            raise ValueError(f"{name} must be positive and finite, not {value!r}")
    _check_cn2(cn2, allow_zero=True)
    return TOTAL_RATE_CONSTANT * cn2 / (lambda1 * lambda2) * kappa_0 ** (-5.0 / 3.0)


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
    if not _positive_finite(omega1, omega2):
        raise ValueError("frequencies must be positive")
    lambda1, lambda2 = two_pi_c_over(omega1), two_pi_c_over(omega2)
    t1, t2 = normalized_distance(z, lambda1, waist), normalized_distance(z, lambda2, waist)
    bracket = 1.0 + 0.5 * t1 * t1 + 0.5 * t2 * t2
    return cn2 / (lambda1 * lambda2) * waist ** (5.0 / 3.0) * bracket ** (5.0 / 6.0)


def integrated_l(
    profile: TurbulenceProfile,
    geom: LinkGeometry,
    pairs: _PairSet | None = None,
) -> float | np.ndarray:
    """Path integral of the decay density, int_0^{z_f} l(z) dz (dimensionless).

    pairs:
      None          -> use geom.wavelength (single-wavelength l)
      pair set      -> two-frequency l for each pair of `pair_constants(w1, w2)`
                       (angular frequencies in rad/s, broadcast): a float for
                       scalar frequencies, else an array of integrals
    """
    # l(z) = C_n^2(z) w^{5/3} / (lambda1 lambda2) * (1 + half_sum (z / pi w^2)^2)^{5/6}
    beam_area = math.pi * geom.waist**2
    if pairs is None:
        # one wavelength: everything but the two sums in Python floats
        wavelength = float(geom.wavelength)
        half_sum = 0.5 * (wavelength * wavelength + wavelength * wavelength)
        rules = _path_rules(profile, geom, _panels(profile, geom, beam_area / math.sqrt(half_sum)))
        fine, coarse = (float(x[0]) for x in _path_sums(rules, np.array([half_sum / beam_area**2])))
        estimate = abs(fine - coarse)
        if estimate > RELATIVE_ERROR_BOUND * abs(fine):
            raise _quadrature_error(wavelength, wavelength, fine, estimate)
        return geom.waist ** (5.0 / 3.0) / (wavelength * wavelength) * fine
    if not isinstance(pairs, _PairSet):
        raise ValueError(f"pairs must be None or a pair_constants set, not {type(pairs).__name__}")
    rules = _path_rules(profile, geom, _panels(profile, geom, beam_area / math.sqrt(pairs.widest)))
    points = pairs.half_sum if pairs.transfer is None else pairs.transfer[0]
    fine, coarse = _path_sums(rules, points / beam_area**2)
    if pairs.transfer is not None:
        fine, coarse = (pairs.transfer[1] @ np.stack([fine, coarse], axis=1)).T.reshape((2,) + pairs.half_sum.shape)
    estimate = np.abs(fine - coarse)
    if (estimate > RELATIVE_ERROR_BOUND * np.abs(fine)).any():
        worst = np.argmax(estimate - RELATIVE_ERROR_BOUND * np.abs(fine))
        raise _quadrature_error(pairs.lambda1.flat[worst], pairs.lambda2.flat[worst],
                                fine.flat[worst], estimate.flat[worst])
    value = geom.waist ** (5.0 / 3.0) / pairs.product * fine
    return float(value) if value.ndim == 0 else value


def _quadrature_error(lambda1, lambda2, value, estimate) -> QuadratureError:
    return QuadratureError(
        f"path integral did not converge at wavelengths ({lambda1:.6g}, {lambda2:.6g}) m "
        f"(value={value}, error estimate={estimate})"
    )


class _PairSet(NamedTuple):
    """The frequency-only constants of a set of pairs: wavelengths, half-sums
    (lambda1^2 + lambda2^2) / 2, products lambda1 lambda2 (read-only arrays),
    the widest half-sum and the Chebyshev transfer (None, or the points and
    barycentric matrix of `_chebyshev_transfer`)."""

    lambda1: np.ndarray
    lambda2: np.ndarray
    half_sum: np.ndarray
    product: np.ndarray
    widest: float
    transfer: tuple | None


def pair_constants(omega1, omega2) -> _PairSet:
    """The constants of the pairs of the broadcast frequency arrays (rad/s),
    uncached; refuses a frequency that is not positive and finite."""
    omega1, omega2 = np.broadcast_arrays(np.asarray(omega1, dtype=float), np.asarray(omega2, dtype=float))
    if not _positive_finite(omega1, omega2):
        raise ValueError("frequencies must be positive")
    lambda1, lambda2 = two_pi_c_over(omega1), two_pi_c_over(omega2)
    half_sum = 0.5 * (lambda1 * lambda1 + lambda2 * lambda2)
    product = lambda1 * lambda2
    for array in (lambda1, lambda2, half_sum, product):
        array.setflags(write=False)
    transfer = _chebyshev_transfer(half_sum.reshape(-1))
    return _PairSet(lambda1, lambda2, half_sum, product, float(half_sum.max()), transfer)


def _path_sums(rules, scale) -> tuple:
    """(fine, coarse): sum_k weight_k C_n^2(z_k) (1 + scale z_k^2)^{5/6} over both
    `_path_rules` for every entry of `scale`: one power per row block, then one
    GEMV per rule.  A block holds at most CHUNK_ELEMENTS fine nodes, as a fine-only
    pass would: a GEMV's sums depend on where a row falls in its block."""
    z2, fine_weights, coarse_weights = rules
    split, flat = fine_weights.size, scale.reshape(-1)
    fine, coarse = np.empty(flat.shape), np.empty(flat.shape)
    rows = max(1, CHUNK_ELEMENTS // split)
    for start in range(0, flat.size, rows):
        block = flat[start:start + rows, None] * z2
        block += 1.0
        np.power(block, 5.0 / 6.0, out=block)
        fine[start:start + rows] = block[:, :split] @ fine_weights
        coarse[start:start + rows] = block[:, split:] @ coarse_weights
    return fine.reshape(scale.shape), coarse.reshape(scale.shape)


def _chebyshev_degree(low: float, high: float) -> float:
    """Number n of Chebyshev points that interpolate a path sum F(s) to the
    unit roundoff relative to F(low) on [low, high] (any positive multiple of
    s; inf for an empty interval or one reaching 0 in floats): the least n with
    4 M rho^{1-n} / (rho - 1) <= UNIT_ROUNDOFF F(low) on the Bernstein
    ellipse through 0, rho = a + sqrt(a^2 - 1), a = (high + low) / (high - low),
    where |s| <= high + low and so M <= F(low) ((high + low) / low)^{5/6}."""
    if not high > low > 0.0:
        return math.inf
    a = (high + low) / (high - low)
    rho = a + math.sqrt(a * a - 1.0)
    if not rho > 1.0:
        return math.inf
    bound = 4.0 * ((high + low) / low) ** (5.0 / 6.0) / (rho - 1.0)
    return max(1, 1 + math.ceil(math.log(bound / UNIT_ROUNDOFF) / math.log(rho)))


def _chebyshev_transfer(values: np.ndarray) -> tuple | None:
    """(points, matrix) for the half-sums `values` (lambda1^2 + lambda2^2) / 2
    of a pair set: the n Chebyshev points of the first kind on [min, max]
    and the read-only (entries x n) barycentric matrix that takes values at
    the points to values at the entries; None where n is not below the
    number of entries.  It depends on the frequencies alone, not on s."""
    low, high = float(values.min()), float(values.max())
    count = _chebyshev_degree(low, high)
    if count >= values.size:
        return None
    angles = (2 * np.arange(count) + 1) * (0.5 * math.pi / count)
    nodes, weights = np.cos(angles), np.sin(angles)
    weights[1::2] *= -1.0
    points = 0.5 * (high + low) + 0.5 * (high - low) * nodes
    # in half-sum units, not on [-1, 1]: exact near the low end, where the
    # entries' positions would round to the high end's scale
    matrix = barycentric_matrix(values, points, weights)
    for array in (points, matrix):
        array.setflags(write=False)
    return points, matrix


def barycentric_matrix(values: np.ndarray, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The matrix that takes values at `points` (barycentric `weights`) to the
    interpolant at the 1-D `values`; a value on a point takes that point's."""
    difference = values[:, None] - points
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = weights / difference
        matrix /= matrix.sum(axis=1, keepdims=True)
    hits = difference == 0.0
    np.copyto(matrix, hits, where=hits.any(axis=1, keepdims=True))
    return matrix


def _panels(profile, geom, rayleigh) -> tuple:
    """Midpoints and half-widths of the composite rule's panels.

    Panels are at most `rayleigh` wide up to GRADING * rayleigh and grow
    geometrically by 1 + 1/GRADING beyond (the decay density is smooth on
    the scale z there); a tabulated profile adds an edge at every crossing
    of a table height.  Both rules of the error estimate share them.  The
    edges, np.union1d's but in Python floats (cheaper on a few dozen), rise
    strictly from 0 to the path length with each crossing once.
    """
    length = geom.path_length
    uniform_end = min(length, GRADING * rayleigh)
    count = math.ceil(uniform_end / rayleigh)
    edges = [i * (uniform_end / count) for i in range(count)] + [uniform_end]
    graded = math.ceil(math.log(length / uniform_end) / math.log1p(1.0 / GRADING))
    if graded:
        edges += np.geomspace(uniform_end, length, graded + 1)[1:].tolist()
    if profile.constant is None:
        edges = sorted(set(edges).union(_table_crossings(profile, geom).tolist()))
    edges = np.array(edges)
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def _path_rules(profile, geom, panels) -> tuple:
    """The composite Gauss-Legendre rules with PANEL_NODES and PANEL_NODES // 2
    nodes on each panel (midpoints, half-widths): every squared node z_k^2, the
    fine rule's first, and each rule's weights x C_n^2(z_k), sampled in one call."""
    mid, half = panels
    x, w = _legendre(PANEL_NODES)
    z = mid[:, None] + half[:, None] * x
    weighted_cn2 = half[:, None] * w * cn2_at(profile, geom, z)
    fine, coarse = slice(PANEL_NODES), slice(PANEL_NODES, None)
    z = np.concatenate([z[:, fine].reshape(-1), z[:, coarse].reshape(-1)])
    return z * z, weighted_cn2[:, fine].reshape(-1), weighted_cn2[:, coarse].reshape(-1)


def _table_crossings(profile, geom) -> np.ndarray:
    """Path positions where the chord crosses a table height h_k: the roots
    s in (0, 1) of |A + s D|^2 = (R + h_k)^2, times the path length."""
    ax, dx, dy = _chord(geom)
    heights = np.array([h for h, _ in profile.table])
    a = dx * dx + dy * dy
    b = 2.0 * ax * dx
    # |A|^2 - (R + h_k)^2 without cancelling two squares of the Earth radius
    c = (geom.transmitter_height - heights) * (ax + EARTH_RADIUS_M + heights)
    disc = b * b - 4.0 * a * c
    root = np.sqrt(disc[disc >= 0.0])
    q = -0.5 * (b + np.copysign(root, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.concatenate([q / a, c[disc >= 0.0] / q])
    return s[(s > 0.0) & (s < 1.0)] * geom.path_length


@lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple:
    """Nodes and weights of the `nodes`-point Gauss-Legendre rule, followed
    by those of the nodes // 2 point rule."""
    rules = [np.polynomial.legendre.leggauss(count) for count in (nodes, nodes // 2)]
    return tuple(np.concatenate(parts) for parts in zip(*rules))
