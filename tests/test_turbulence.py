import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from path_oracle import path_sums, per_entry_integrals
from scipy.optimize import golden
from spectrum_oracle import fried_parameter, vonkarman_psd

from turbulink import entanglement, ipe, lgmodes, schmidt, temporal, turbulence
from turbulink.ipe import DECAY_CONSTANT
from turbulink.schmidt import BiphotonSpec, frequency_grid, gauss_hermite_rule
from turbulink.temporal import channel_kernel
from turbulink.turbulence import (
    EARTH_RADIUS_M,
    LinkGeometry,
    ProfileError,
    QuadratureError,
    TurbulenceProfile,
    big_l_t,
    cn2_at,
    integrated_l,
    l_cross,
    l_strength,
    pair_constants,
    path_height,
)

C = 299792458.0


def paper_geom(**overrides):
    params = dict(
        path_length=3.0e4,
        transmitter_height=19.0,
        receiver_height=19.0,
        waist=0.1457,
        wavelength=3.95e-6,
    )
    params.update(overrides)
    return LinkGeometry(**params)


class TestPathHeight:
    def test_endpoints_exact(self):
        geom = paper_geom(transmitter_height=19.0, receiver_height=33.0)
        assert path_height(geom, 0.0) == pytest.approx(19.0, abs=1e-9)
        assert path_height(geom, geom.path_length) == pytest.approx(33.0, abs=1e-9)

    def test_paper_midpoint_clearance(self):
        geom = paper_geom()
        clearance = path_height(geom, 1.5e4)
        assert clearance == pytest.approx(1.36, abs=0.05)

    def test_midpoint_sagitta_against_circle_chord_oracle(self):
        geom = paper_geom()
        radius = EARTH_RADIUS_M + 19.0
        # isosceles chord: midpoint sits at sqrt(r^2 - (L/2)^2) from the center
        expected_sagitta = radius - math.sqrt(radius**2 - (geom.path_length / 2.0) ** 2)
        sagitta = 19.0 - path_height(geom, 1.5e4)
        assert sagitta == pytest.approx(expected_sagitta, abs=1e-6)
        assert sagitta == pytest.approx(17.66, abs=0.01)

    def test_symmetric_with_midpath_sag(self):
        # equal endpoints: the chord height is symmetric and bowl-shaped
        # (positive curvature, minimum at the middle)
        geom = paper_geom()
        zs = np.linspace(0.0, geom.path_length, 41)
        heights = np.array([path_height(geom, z) for z in zs])
        assert heights == pytest.approx(heights[::-1], abs=1e-9)
        second = np.diff(heights, 2)
        assert np.all(second > 0)
        assert np.argmin(heights) == 20

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            path_height(paper_geom(), -1.0)


class TestProfiles:
    def test_constant(self):
        profile = TurbulenceProfile.from_constant(1e-16)
        assert cn2_at(profile, paper_geom(), 1.0e4) == 1e-16

    def test_table_node_hit(self):
        profile = TurbulenceProfile.from_table([(10.0, 1e-13), (100.0, 1e-15)])
        geom = paper_geom(transmitter_height=10.0, receiver_height=10.0, path_length=100.0)
        assert cn2_at(profile, geom, 0.0) == pytest.approx(1e-13, rel=1e-12)

    def test_log_log_midpoint(self):
        profile = TurbulenceProfile.from_table([(10.0, 1e-13), (100.0, 1e-15)])
        geom = paper_geom(
            transmitter_height=math.sqrt(10.0 * 100.0),
            receiver_height=math.sqrt(10.0 * 100.0),
            path_length=10.0,
        )
        assert cn2_at(profile, geom, 5.0) == pytest.approx(1e-14, rel=0.01)

    def test_clamps_at_table_ends(self):
        profile = TurbulenceProfile.from_table([(10.0, 1e-13), (100.0, 1e-15)])
        geom = paper_geom(transmitter_height=500.0, receiver_height=500.0, path_length=10.0)
        assert cn2_at(profile, geom, 5.0) == pytest.approx(1e-15, rel=1e-9)

    def test_table_validation(self):
        with pytest.raises(ProfileError):
            TurbulenceProfile.from_table([(10.0, 1e-13)])
        with pytest.raises(ProfileError):
            TurbulenceProfile.from_table([(10.0, 1e-13), (5.0, 1e-14)])
        with pytest.raises(ProfileError):
            TurbulenceProfile.from_table([(10.0, 1e-13), (20.0, 1e-9)])

    @pytest.mark.parametrize(
        "points,height",
        [([(0.0, 1e-15), (30.0, 1e-16)], "0.0"), ([(-5.0, 1e-15), (10.0, 1e-16)], "-5.0")],
        ids=["zero", "negative"],
    )
    def test_nonpositive_height_rejected(self, points, height):
        with pytest.raises(ProfileError, match=f"profile height {height} m must be > 0"):
            TurbulenceProfile.from_table(points)

    @pytest.mark.parametrize(
        "points",
        [[(2.0, 1e-15), (math.nan, 1e-16), (500.0, 1e-17)], [(2.0, 1e-15), (math.inf, 1e-16)]],
        ids=["nan", "inf"],
    )
    def test_nonfinite_height_rejected(self, points):
        # every ordered comparison with NaN is false, so neither the order
        # nor the positivity check saw it; the kernel came out all NaN
        with pytest.raises(ProfileError, match="profile heights must be finite"):
            TurbulenceProfile.from_table(points)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("height_m,cn2\n10.0,1e-13\n100.0,1e-15\n")
        profile = TurbulenceProfile.from_csv(path)
        assert profile.table == ((10.0, 1e-13), (100.0, 1e-15))

    def test_csv_errors_name_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("height_m,cn2\n10.0,1e-13\nnonsense\n")
        with pytest.raises(ProfileError, match="line 3"):
            TurbulenceProfile.from_csv(path)
        path.write_text("h,c\n10.0,1e-13\n")
        with pytest.raises(ProfileError, match="line 1"):
            TurbulenceProfile.from_csv(path)
        path.write_text("height_m,cn2\n10.0,bogus\n")
        with pytest.raises(ProfileError, match="line 2"):
            TurbulenceProfile.from_csv(path)


class TestSpectrum:
    def test_zero_wavenumber_value(self):
        expected = 0.033 * (2.0 * math.pi) ** 3 * 1e-15 / 0.5 ** (11.0 / 3.0)
        assert vonkarman_psd(0.0, 1e-15, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_inertial_power_law(self):
        ratio = vonkarman_psd(2.0, 1e-15, 1e-4) / vonkarman_psd(1.0, 1e-15, 1e-4)
        assert ratio == pytest.approx(2.0 ** (-11.0 / 3.0), rel=1e-3)

    def test_monotone_decreasing(self):
        values = [vonkarman_psd(k, 1e-15, 0.3) for k in np.linspace(0, 50, 200)]
        assert np.all(np.diff(values) < 0)


class TestTotalRate:
    def test_degenerate_constant_against_radial_integral(self):
        # independent oracle: quadrature of k^2 Phi over the transverse plane
        lam, cn2, kappa0 = 3.95e-6, 1e-15, 1e-3
        k = 2.0 * math.pi / lam
        # integrate in u = ln K on composite Gauss-Legendre panels: a smooth
        # bump at the outer scale plus a K^{-5/3} shoulder, both resolved to
        # machine precision with a panel per half-decade
        lo, hi = math.log(kappa0) - 25.0, math.log(kappa0) + 45.0
        panels = 60
        gx, gw = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        u_nodes = (mid[:, None] + half * gx[None, :]).ravel()
        u_weights = np.tile(half * gw, panels)
        K_nodes = np.exp(u_nodes)
        values = np.array([K * K * vonkarman_psd(K, cn2, kappa0) for K in K_nodes])
        radial = float(np.dot(u_weights, values))
        oracle = k * k * radial * (2.0 * math.pi) / (4.0 * math.pi**2)
        value = big_l_t(lam, lam, cn2, kappa0)
        assert value == pytest.approx(oracle, rel=5e-4)
        constant = value * lam**2 * kappa0 ** (5.0 / 3.0) / cn2
        assert constant == pytest.approx(30.86, abs=0.01)

    def test_outer_scale_scaling(self):
        base = big_l_t(3.95e-6, 3.95e-6, 1e-15, 1.0)
        doubled = big_l_t(3.95e-6, 3.95e-6, 1e-15, 2.0)
        assert doubled / base == pytest.approx(2.0 ** (-5.0 / 3.0), rel=1e-12)

    def test_divergence_for_large_outer_scale(self):
        base = big_l_t(3.95e-6, 3.95e-6, 1e-15, 1.0)
        wide = big_l_t(3.95e-6, 3.95e-6, 1e-15, 0.1)
        assert wide / base == pytest.approx(10.0 ** (5.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("kappa_0", [0.0, -1.0, math.nan, math.inf])
    def test_positive_outer_scale_required(self, kappa_0):
        # NaN used to return nan
        with pytest.raises(ValueError, match="^kappa_0 must be positive and finite"):
            big_l_t(3.95e-6, 3.95e-6, 1e-15, kappa_0)


class TestDecayDensity:
    def test_waist_plane_value(self):
        value = l_strength(0.0, 1e-16, 3.95e-6, 0.1457)
        expected = 1e-16 / 3.95e-6**2 * 0.1457 ** (5.0 / 3.0)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_rayleigh_range_factor(self):
        lam, w0 = 3.95e-6, 0.1457
        z_r = math.pi * w0**2 / lam
        ratio = l_strength(z_r, 1e-16, lam, w0) / l_strength(0.0, 1e-16, lam, w0)
        assert ratio == pytest.approx(2.0 ** (5.0 / 6.0), rel=1e-12)

    def test_far_field_scaling(self):
        lam, w0 = 3.95e-6, 0.1457
        z_r = math.pi * w0**2 / lam
        z = 100.0 * z_r
        # far field: l ~ cn2 w0^{-5/3} lambda^{-1/3} z^{5/3}
        value = l_strength(z, 1e-16, lam, w0)
        prediction = 1e-16 * w0 ** (-5.0 / 3.0) * lam ** (-1.0 / 3.0) * (z / math.pi) ** (5.0 / 3.0)
        assert value == pytest.approx(prediction, rel=2e-4)

    def test_cross_degenerate_reduction(self):
        lam, w0 = 3.95e-6, 0.1457
        omega = 2.0 * math.pi * C / lam
        for z in (0.0, 1.0e4, 3.0e4):
            assert l_cross(z, omega, omega, 1e-16, w0) == pytest.approx(
                l_strength(z, 1e-16, lam, w0), rel=1e-13
            )

    def test_cross_symmetry(self):
        w1, w2 = 4.5e14, 5.1e14
        assert l_cross(2e4, w1, w2, 1e-16, 0.1457) == l_cross(2e4, w2, w1, 1e-16, 0.1457)

    def test_cross_waist_plane(self):
        w1, w2 = 4.5e14, 5.1e14
        lam1, lam2 = 2 * math.pi * C / w1, 2 * math.pi * C / w2
        expected = 1e-16 * 0.1457 ** (5.0 / 3.0) / (lam1 * lam2)
        assert l_cross(0.0, w1, w2, 1e-16, 0.1457) == pytest.approx(expected, rel=1e-13)

    def test_waist_minimizer(self):
        lam, z = 3.95e-6, 3.0e4
        bracket = (0.05, 0.5)
        found = golden(lambda w: l_strength(z, 1e-16, lam, w), brack=bracket, tol=1e-10)
        # closed form of dl/dw0 = 0: w0 = sqrt(lambda z / pi)
        assert found == pytest.approx(math.sqrt(lam * z / math.pi), rel=1e-3)


class TestFried:
    def test_paper_scale_value(self):
        assert fried_parameter(3.95e-6, 1e-16, 3.0e4) == pytest.approx(0.497, abs=5e-3)

    def test_distance_scaling(self):
        base = fried_parameter(3.95e-6, 1e-16, 3.0e4)
        doubled = fried_parameter(3.95e-6, 1e-16, 6.0e4)
        assert doubled / base == pytest.approx(2.0 ** (-3.0 / 5.0), rel=1e-12)

    def test_decay_constant_link(self):
        assert 3.25 / 0.185 ** (5.0 / 3.0) == pytest.approx(54.1, abs=0.1)


class TestIntegratedL:
    def test_short_path_constant_integrand(self):
        geom = paper_geom(path_length=50.0)
        profile = TurbulenceProfile.from_constant(1e-16)
        value = integrated_l(profile, geom)
        expected = l_strength(0.0, 1e-16, geom.wavelength, geom.waist) * 50.0
        assert value == pytest.approx(expected, rel=1e-3)

    def test_linearity_in_cn2(self):
        geom = paper_geom()
        one = integrated_l(TurbulenceProfile.from_constant(1e-16), geom)
        two = integrated_l(TurbulenceProfile.from_constant(2e-16), geom)
        assert two == pytest.approx(2.0 * one, rel=1e-10)

    def test_against_riemann_oracle(self):
        geom = paper_geom()
        profile = TurbulenceProfile.from_constant(1e-16)
        value = integrated_l(profile, geom)
        zs = (np.arange(1_000_000) + 0.5) * (geom.path_length / 1_000_000)
        t = geom.wavelength * zs / (math.pi * geom.waist**2)
        integrand = (
            1e-16 / geom.wavelength**2 * geom.waist ** (5.0 / 3.0) * (1.0 + t * t) ** (5.0 / 6.0)
        )
        riemann = float(integrand.sum() * geom.path_length / 1_000_000)
        assert value == pytest.approx(riemann, rel=1e-6)

    def test_cross_frequency_mode(self):
        geom = paper_geom()
        profile = TurbulenceProfile.from_constant(1e-16)
        omega = 2.0 * math.pi * C / geom.wavelength
        single = integrated_l(profile, geom)
        cross = integrated_l(profile, geom, pair_constants(omega, omega))
        assert cross == pytest.approx(single, rel=1e-9)


NON_FINITE_FREQUENCIES = {"nan": math.nan, "inf": math.inf, "nan-entry": np.array([1e15, math.nan])}


class TestNonFiniteInputs:
    """NaN fails every positivity check, and an infinite length or
    frequency is refused with the message of a non-positive one."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["path_length", "transmitter_height", "receiver_height", "waist", "wavelength"],
        # each case keeps its id from when the heights, and the waist and wavelength, shared a message
        ids=["path_length-path_length", "transmitter_height-endpoint heights", "receiver_height-endpoint heights",
             "waist-waist and wavelength", "wavelength-waist and wavelength"],
    )
    def test_link_geometry_refuses(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, not {value}$"):
            paper_geom(**{field: value})

    @pytest.mark.parametrize("omega", NON_FINITE_FREQUENCIES.values(), ids=NON_FINITE_FREQUENCIES)
    def test_l_cross_refuses(self, omega):
        for pair in ((omega, 1e15), (1e15, omega)):
            with pytest.raises(ValueError, match="frequencies must be positive"):
                l_cross(1.0, *pair, 1e-15, 0.1457)

    @pytest.mark.parametrize("omega", NON_FINITE_FREQUENCIES.values(), ids=NON_FINITE_FREQUENCIES)
    def test_integrated_l_refuses(self, omega):
        # the set's constants refuse the frequencies; the bare pair, once
        # read as a second form of the argument, is refused by name
        profile = TurbulenceProfile.from_constant(1e-16)
        for pair in ((omega, 1e15), (1e15, omega)):
            with pytest.raises(ValueError, match="frequencies must be positive"):
                integrated_l(profile, paper_geom(), pair_constants(*pair))
            with pytest.raises(ValueError, match="^pairs must be None or a pair_constants set, not tuple$"):
                integrated_l(profile, paper_geom(), pair)


# 30 km over 19 m endpoints sags to 1.4 m mid-path, under the 5 m lowest height
CROSSING_TABLE = [(5.0, 3e-14), (60.0, 4e-15), (400.0, 5e-16), (2000.0, 6e-17)]


def quad_exponents(profile, geom, omegas):
    """Oracle: one adaptive quad per frequency pair of the decay exponent."""
    size = len(omegas)
    exponents = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            value = quad(
                lambda z: l_cross(z, omegas[i], omegas[j], cn2_at(profile, geom, z), geom.waist),
                0.0, geom.path_length, epsrel=1e-8, epsabs=0.0, limit=200,
            )[0]
            exponents[i, j] = exponents[j, i] = DECAY_CONSTANT * value
    return exponents


def waist_for(t_end, path_length, wavelength=3.95e-6):
    """Waist whose Rayleigh range puts the receiver at t = z_f / z_R = t_end."""
    return math.sqrt(path_length * wavelength / (math.pi * t_end))


class TestPathRule:
    def check_kernel(self, spec, profile, geom, grid_order):
        kernel = channel_kernel(spec, profile, geom, grid_order=grid_order)
        assert np.array_equal(kernel.matrix, kernel.matrix.T)
        oracle = quad_exponents(profile, geom, kernel.omegas)
        np.testing.assert_allclose(-np.log(kernel.matrix), oracle, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("grid_order", [16, 32, 64])
    @pytest.mark.parametrize("t_end", [0.5, 1.8, 5.0])
    def test_constant_kernel_matches_quad(self, paper_spec, grid_order, t_end):
        geom = paper_geom(waist=waist_for(t_end, 3.0e4))
        self.check_kernel(paper_spec, TurbulenceProfile.from_constant(1e-16), geom, grid_order)

    def test_tabulated_kernel_inside_table_matches_quad(self, paper_spec):
        profile = TurbulenceProfile.from_table([(5.0, 3e-15), (60.0, 4e-16), (400.0, 5e-17)])
        geom = paper_geom(path_length=8.0e3, receiver_height=31.0, waist=waist_for(1.2, 8.0e3))
        assert 5.0 < min(path_height(geom, z) for z in np.linspace(0, 8.0e3, 81))
        self.check_kernel(paper_spec, profile, geom, 16)

    def test_kernel_across_table_heights_matches_quad(self, paper_spec):
        profile = TurbulenceProfile.from_table(CROSSING_TABLE)
        geom = paper_geom()
        assert path_height(geom, 1.5e4) < 5.0
        self.check_kernel(paper_spec, profile, geom, 8)

    @pytest.mark.parametrize("t_end", [40.0, 6.0e5])
    def test_graded_panels_far_past_rayleigh_range(self, t_end):
        geom = paper_geom(waist=waist_for(t_end, 3.0e4))
        oracle = quad(
            lambda z: l_strength(z, 1e-16, geom.wavelength, geom.waist),
            0.0, geom.path_length, epsrel=1e-8, epsabs=0.0, limit=200,
        )[0]
        value = integrated_l(TurbulenceProfile.from_constant(1e-16), geom)
        assert value == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize(
        "profile",
        [TurbulenceProfile.from_constant(1e-16), TurbulenceProfile.from_table(CROSSING_TABLE)],
        ids=["constant", "crossing"],
    )
    def test_array_matches_scalar_calls(self, paper_spec, profile):
        geom = paper_geom()
        omegas = frequency_grid(paper_spec, 8)
        array = integrated_l(profile, geom, pair_constants(omegas[:, None], omegas[None, :]))
        assert array.shape == (8, 8)
        scalar = [[integrated_l(profile, geom, pair_constants(w1, w2)) for w2 in omegas] for w1 in omegas]
        np.testing.assert_allclose(array, scalar, rtol=1e-14, atol=0.0)
        assert isinstance(integrated_l(profile, geom, pair_constants(omegas[0], omegas[1])), float)

    def test_error_estimate_guard(self, monkeypatch):
        # 2 against 1 node per panel: the estimate is far above the 1e-6 bound
        monkeypatch.setattr(turbulence, "PANEL_NODES", 2)
        with pytest.raises(QuadratureError):
            integrated_l(TurbulenceProfile.from_constant(1e-16), paper_geom())

    def test_tabulated_kernel_leaves_numpy_ma_out(self, paper_spec):
        # np.union1d's np.unique imports numpy.ma on its first call; the
        # panel edges are merged in Python, so a tabulated link adds no
        # numpy.ma import of its own
        code = (
            "import sys\n"
            "from turbulink.schmidt import BiphotonSpec\n"
            "from turbulink.temporal import channel_kernel\n"
            "from turbulink.turbulence import LinkGeometry, TurbulenceProfile\n"
            f"spec = BiphotonSpec({paper_spec.sigma_a!r}, {paper_spec.sigma_b!r}, {paper_spec.omega_p!r})\n"
            f"profile = TurbulenceProfile.from_table({CROSSING_TABLE!r})\n"
            "channel_kernel(spec, profile, LinkGeometry(3.0e4, 19.0, 19.0, 0.1457, 3.95e-6), grid_order=8)\n"
            "sys.exit('numpy.ma' in sys.modules)"
        )
        src = str(Path(turbulence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_cli_import_leaves_scipy_integrate_out(self):
        # scipy is a test-only dependency: no scipy module at all
        code = (
            "import sys, turbulink.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(' '.join(loaded) or None)"
        )
        src = str(Path(turbulence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


def kernel_pairs(spec, order):
    """(omega1, omega2) of an order x order kernel's upper triangle, the
    entries `channel_kernel` integrates."""
    omegas = frequency_grid(spec, order)
    rows, cols = np.triu_indices(order)
    return omegas[rows], omegas[cols]


def reaching_down_to(spec, order, fraction):
    """`spec` with sigma_a = sigma_b widened until its grid of the given order
    reaches down to `fraction` of the centre frequency."""
    reach = (1.0 - fraction) * spec.center / gauss_hermite_rule(order).nodes.max()
    sigma = math.sqrt(2.0) * reach  # 1 / sqrt(b) = sqrt(sigma_a sigma_b / 2)
    return BiphotonSpec(sigma_a=sigma, sigma_b=sigma, omega_p=spec.omega_p)


def interpolated(geom, pairs) -> bool:
    """Whether `integrated_l` takes the Chebyshev path for these pairs."""
    return turbulence.pair_constants(*pairs).transfer is not None


# the inputs of the Chebyshev path at g = 64: (profile, waist, fraction of
# the centre frequency the grid reaches down to; None keeps the paper source)
CHEBYSHEV_LINKS = {
    "constant": (TurbulenceProfile.from_constant(1e-16), 0.1457, None),
    "crossing": (TurbulenceProfile.from_table(CROSSING_TABLE), 0.1457, None),
    "graded": (TurbulenceProfile.from_constant(1e-16), 0.04, None),  # about 24 Rayleigh ranges
    "wide": (TurbulenceProfile.from_constant(1e-16), 0.04, 0.05),  # 921 points for 2,080 entries
}


class TestChebyshevPath:
    @pytest.mark.parametrize("profile, waist, fraction", CHEBYSHEV_LINKS.values(), ids=CHEBYSHEV_LINKS)
    def test_interpolated_integrals_match_per_entry_oracle(self, paper_spec, profile, waist, fraction):
        spec = paper_spec if fraction is None else reaching_down_to(paper_spec, 64, fraction)
        geom, pairs = paper_geom(waist=waist), kernel_pairs(spec, 64)
        assert interpolated(geom, pairs)
        oracle = per_entry_integrals(profile, geom, pairs)
        np.testing.assert_allclose(integrated_l(profile, geom, pair_constants(*pairs)), oracle, rtol=1e-14, atol=0.0)

    def test_widest_band_sums_every_entry(self, paper_spec):
        # a grid reaching down to 1e-3 of the centre, as wide as the
        # validator's omega_min > 0 allows for practical purposes: the
        # ellipse through s = 0 hugs the interval, the degree passes the
        # number of entries and every entry is summed directly
        spec = reaching_down_to(paper_spec, 64, 1e-3)
        pairs = kernel_pairs(spec, 64)
        assert 0.0 < pairs[0].min() < 1.01e-3 * spec.center
        lambdas = turbulence.two_pi_c_over(np.array([pairs[0].max(), pairs[0].min()]))
        assert turbulence._chebyshev_degree(*lambdas**2) >= len(pairs[0])
        profile, geom = TurbulenceProfile.from_constant(1e-16), paper_geom()
        value = integrated_l(profile, geom, pair_constants(*pairs))
        assert np.array_equal(value, per_entry_integrals(profile, geom, pairs))

    @pytest.mark.parametrize(
        "profile",
        [TurbulenceProfile.from_constant(1e-16), TurbulenceProfile.from_table(CROSSING_TABLE)],
        ids=["constant", "crossing"],
    )
    def test_few_entries_sum_every_entry(self, paper_spec, profile):
        # single wavelength, scalar pairs and a set no larger than its
        # degree (the 16 diagonal pairs of g = 16 need 25 points) are
        # summed directly, bit for bit as before
        geom = paper_geom()
        assert integrated_l(profile, geom) == per_entry_integrals(profile, geom)
        omegas = frequency_grid(paper_spec, 16)
        for pair in [(omegas[0], omegas[-1]), (omegas[3], omegas[3])]:
            assert integrated_l(profile, geom, pair_constants(*pair)) == per_entry_integrals(profile, geom, pair)
        diagonal = (omegas, omegas)
        assert not interpolated(geom, diagonal)
        value = integrated_l(profile, geom, pair_constants(*diagonal))
        assert np.array_equal(value, per_entry_integrals(profile, geom, diagonal))

    def test_error_estimate_guard_names_worst_pair(self, monkeypatch, paper_spec):
        # 2 against 1 node per panel on the interpolated path: every pair is
        # still checked, and the message names the pair furthest over the bound
        monkeypatch.setattr(turbulence, "PANEL_NODES", 2)
        profile, geom, pairs = TurbulenceProfile.from_constant(1e-16), paper_geom(), kernel_pairs(paper_spec, 64)
        assert interpolated(geom, pairs)
        fine, coarse = path_sums(profile, geom, pairs)
        worst = np.argmax(np.abs(fine - coarse) - turbulence.RELATIVE_ERROR_BOUND * fine)
        lambda1, lambda2 = (turbulence.two_pi_c_over(x[worst]) for x in pairs)
        with pytest.raises(QuadratureError, match=re.escape(f"({lambda1:.6g}, {lambda2:.6g}) m")):
            integrated_l(profile, geom, pair_constants(*pairs))

    def test_degree_rule(self, paper_spec):
        # the point counts the README quotes at the paper source, and no
        # finite count where the interval is empty or reaches 0 in floats
        for order, count in ((16, 25), (32, 33), (64, 50)):
            lambdas = turbulence.two_pi_c_over(frequency_grid(paper_spec, order)[[-1, 0]])
            assert turbulence._chebyshev_degree(*lambdas**2) == count
        for low, high in ((2.0, 2.0), (0.0, 1.0), (1e-17, 1.0)):
            assert turbulence._chebyshev_degree(low, high) == math.inf

    def test_grid_cache_keyed_on_spec_and_order(self, paper_spec):
        # two links on one grid differ in s but not in the grid: one miss,
        # then a hit; another spec of the same order is a grid of its own;
        # the cache is bounded and every array read-only, since sweep
        # threads share them
        temporal._source_grid.cache_clear()
        profile = TurbulenceProfile.from_constant(1e-16)
        kernels = [channel_kernel(paper_spec, profile, paper_geom(waist=waist), grid_order=64)
                   for waist in (0.1457, 0.04)]
        info = temporal._source_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize == temporal.TRANSFER_CACHE
        grid = temporal._source_grid(paper_spec, 64)
        assert kernels[0].omegas is grid.omegas and kernels[1].omegas is grid.omegas
        assert np.array_equal(grid.omegas, frequency_grid(paper_spec, 64))
        rows, cols = np.triu_indices(64)
        assert np.array_equal(grid.rows, rows) and np.array_equal(grid.cols, cols)
        assert np.array_equal(grid.mirror[rows, cols], np.arange(rows.size))
        assert np.array_equal(grid.mirror, grid.mirror.T)
        pairs, uncached = grid.pairs, turbulence.pair_constants(*kernel_pairs(paper_spec, 64))
        points, matrix = pairs.transfer
        assert matrix.shape == (len(pairs.half_sum), len(points))
        assert np.array_equal(matrix, uncached.transfer[1])
        assert np.array_equal(pairs.product, uncached.product)
        for array in (grid.omegas, grid.rows, grid.cols, grid.mirror, pairs.lambda1, pairs.lambda2,
                      pairs.half_sum, pairs.product, points, matrix):
            assert not array.flags.writeable
        other = BiphotonSpec(sigma_a=2.0 * paper_spec.sigma_a, sigma_b=paper_spec.sigma_b, omega_p=paper_spec.omega_p)
        channel_kernel(other, profile, paper_geom(), grid_order=64)
        assert temporal._source_grid.cache_info().misses == 2
        assert not np.array_equal(temporal._source_grid(other, 64).omegas, grid.omegas)

    def test_sets_sharing_half_sums_keep_their_products(self, paper_spec):
        # a set of g = 64 pairs, and one of equal wavelengths
        # lambda' = sqrt(half-sum) with byte-equal half-sums but other
        # products lambda1 lambda2 (kept where lambda'^2 rounds back to the
        # half-sum, about half the pairs): each is its own cache entry and
        # matches the per-entry oracle
        omega1, omega2 = kernel_pairs(paper_spec, 64)
        lambda1, lambda2 = turbulence.two_pi_c_over(omega1), turbulence.two_pi_c_over(omega2)
        half_sum = 0.5 * (lambda1 * lambda1 + lambda2 * lambda2)
        omega_equal = turbulence.two_pi_c_over(np.sqrt(half_sum))
        lambda_equal = turbulence.two_pi_c_over(omega_equal)
        kept = 0.5 * (lambda_equal * lambda_equal + lambda_equal * lambda_equal) == half_sum
        assert kept.sum() > 900
        first, second = (omega1[kept], omega2[kept]), (omega_equal[kept], omega_equal[kept])
        sets = [turbulence.pair_constants(*pairs) for pairs in (first, second)]
        assert sets[0].half_sum.tobytes() == sets[1].half_sum.tobytes()
        off_diagonal = first[0] != first[1]
        assert np.all(sets[0].product[off_diagonal] < sets[1].product[off_diagonal])
        geom = paper_geom()
        for profile in (TurbulenceProfile.from_constant(1e-16), TurbulenceProfile.from_table(CROSSING_TABLE)):
            for pairs in (first, second):
                assert interpolated(geom, pairs)
                oracle = per_entry_integrals(profile, geom, pairs)
                value = integrated_l(profile, geom, pair_constants(*pairs))
                np.testing.assert_allclose(value, oracle, rtol=1e-14, atol=0.0)

    def test_scalar_frequency_broadcasts_against_an_array(self, paper_spec):
        # one omega1 against the whole grid in omega2, and the reverse: the
        # two sets share no key but give the same integrals
        profile, geom = TurbulenceProfile.from_constant(1e-16), paper_geom()
        omegas = frequency_grid(paper_spec, 64)
        row = integrated_l(profile, geom, pair_constants(omegas[5], omegas))
        assert row.shape == (64,)
        assert np.array_equal(integrated_l(profile, geom, pair_constants(omegas, omegas[5])), row)
        oracle = per_entry_integrals(profile, geom, (omegas[5], omegas))
        np.testing.assert_allclose(row, oracle, rtol=1e-14, atol=0.0)

    def test_threads_share_the_cache(self, paper_spec):
        # more grids than the cache keeps, on more threads than cores, with
        # short switch intervals: every kernel equals its serial one
        profile, geom = TurbulenceProfile.from_constant(1e-16), paper_geom()
        orders = (10, 12, 14, 16, 20, 24, 28, 32, 48, 64)
        assert len(orders) > temporal.TRANSFER_CACHE
        serial = {order: channel_kernel(paper_spec, profile, geom, grid_order=order).matrix for order in orders}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [(order, pool.submit(channel_kernel, paper_spec, profile, geom, grid_order=order))
                           for _ in range(4) for order in orders]
                for order, future in futures:
                    assert np.array_equal(future.result(timeout=60).matrix, serial[order])
        finally:
            sys.setswitchinterval(interval)
        assert temporal._source_grid.cache_info().currsize == temporal.TRANSFER_CACHE


def union1d_edges(profile, geom, rayleigh):
    """Oracle: the panel edges as np.linspace, np.geomspace and np.union1d
    give them (uniform to GRADING Rayleigh ranges, graded beyond, and every
    table crossing of a tabulated profile)."""
    length = geom.path_length
    uniform_end = min(length, turbulence.GRADING * rayleigh)
    graded = math.ceil(math.log(length / uniform_end) / math.log1p(1.0 / turbulence.GRADING))
    edges = np.concatenate([
        np.linspace(0.0, uniform_end, math.ceil(uniform_end / rayleigh) + 1),
        np.geomspace(uniform_end, length, graded + 1)[1:],
    ])
    if profile.constant is None:
        edges = np.union1d(edges, turbulence._table_crossings(profile, geom))
    return edges


# rayleigh (m) of a 30 km path: all panels uniform, or graded past 8 km
BRANCHES = {"uniform": 7.0e3, "graded": 1.0e3}


class TestPanels:
    @pytest.mark.parametrize("rayleigh", BRANCHES.values(), ids=BRANCHES)
    @pytest.mark.parametrize(
        "profile",
        [TurbulenceProfile.from_constant(1e-16), TurbulenceProfile.from_table(CROSSING_TABLE)],
        ids=["constant", "crossing"],
    )
    def test_matches_union1d_bit_for_bit(self, profile, rayleigh):
        edges = union1d_edges(profile, paper_geom(), rayleigh)
        mid, half = turbulence._panels(profile, paper_geom(), rayleigh)
        assert mid.tobytes() == (0.5 * (edges[1:] + edges[:-1])).tobytes()
        assert half.tobytes() == (0.5 * np.diff(edges)).tobytes()

    @pytest.mark.parametrize("rayleigh", BRANCHES.values(), ids=BRANCHES)
    def test_each_crossing_is_one_edge(self, monkeypatch, rayleigh):
        # crossings on a uniform edge, on a late (graded, if any) edge
        # and between edges; each must give exactly one edge
        geom = paper_geom()
        plain = union1d_edges(TurbulenceProfile.from_constant(1e-16), geom, rayleigh)
        on_edges = [plain[3], plain[-4]]
        between = [0.5 * (plain[1] + plain[2]), 0.5 * (plain[-3] + plain[-2])]
        crossings = np.array(on_edges + between + on_edges[:1])  # one repeated
        monkeypatch.setattr(turbulence, "_table_crossings", lambda profile, geom: crossings)
        mid, half = turbulence._panels(TurbulenceProfile.from_table(CROSSING_TABLE), geom, rayleigh)
        edges = np.append(mid - half, mid[-1] + half[-1])
        assert len(edges) == len(plain) + len(between)
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(geom.path_length, rel=1e-15)
        assert np.all(half > 0.0) and np.all(np.diff(mid) > 0.0)
        for crossing in on_edges + between:
            assert np.count_nonzero(np.isclose(edges, crossing, rtol=0.0, atol=1e-9)) == 1


POSITIVITY = {
    "nan": (math.nan, False),
    "inf": (math.inf, False),
    "-inf": (-math.inf, False),
    "zero": (0.0, False),
    "negative": (-2.5, False),
    "int": (3, True),
    "float64": (np.float64(2.5), True),
    "0-d": (np.array(2.5), True),
    "0-d-nan": (np.array(math.nan), False),
}


@pytest.mark.parametrize("value, expected", POSITIVITY.values(), ids=POSITIVITY)
def test_positive_finite_same_verdict_on_scalars_and_arrays(value, expected):
    for args in ((value,), (1.0, value), (value, 1.0), (np.array([value]),), (np.array([1.0, value]),)):
        assert turbulence._positive_finite(*args) == expected


# The refusal contract: every public function and dataclass that takes a mode
# index, count, cutoff, order or dim refuses each of INDEX_VALUES (-1 only
# where the argument may not be negative) with a ValueError subclass whose
# message names the argument.  Arguments typed LGIndex are covered by
# LGIndex's row; RobustnessRow is the record that robustness_scan fills, not
# an input.  The link and source parameters refuse each of POSITIVE_VALUES
# (zero only where it is not allowed).  Each row: the call of the bad value
# x, the argument's name in the message, and whether -1 (or zero) is valid.
FULL_IPE = temporal.KernelFidelity.FULL_IPE
EXACT = ipe.PropagationScheme.TRUNCATED_EXACT
INDEX_ARGUMENTS = {
    "schmidt_eigenvalue": (lambda c, x: schmidt.schmidt_eigenvalue(c.spec, x), "n", False),
    "truncated_source": (lambda c, x: schmidt.truncated_source(c.spec, x), "max_mode", False),
    "hermite_functions": (lambda c, x: schmidt.hermite_functions(x, 0.0), "count", False),
    "gauss_hermite_rule": (lambda c, x: schmidt.gauss_hermite_rule(x), "order", False),
    "frequency_grid": (lambda c, x: schmidt.frequency_grid(c.spec, x), "order", False),
    "discrete_modes": (lambda c, x: schmidt.discrete_modes(x), "order", False),
    "LGIndex-l": (lambda c, x: lgmodes.LGIndex(l=x, r=0), "l", True),
    "LGIndex-r": (lambda c, x: lgmodes.LGIndex(l=0, r=x), "r", False),
    "ModeBasis": (lambda c, x: lgmodes.ModeBasis(x), "cutoff", False),
    "sector_blocks-cutoff": (lambda c, x: lgmodes.sector_blocks(x, 0), "cutoff", False),
    "sector_blocks-delta": (lambda c, x: lgmodes.sector_blocks(1, x), "delta", True),
    "sector_orders-cutoff": (lambda c, x: lgmodes.sector_orders(x, 0), "cutoff", False),
    "sector_orders-delta": (lambda c, x: lgmodes.sector_orders(1, x), "delta", True),
    "radial_rule": (lambda c, x: lgmodes.radial_rule(x), "count", False),
    "pair_coupling_blocks-cutoff": (lambda c, x: lgmodes.pair_coupling_blocks(x, 0, np.ones((2, 1))), "cutoff", False),
    "pair_coupling_blocks-delta": (lambda c, x: lgmodes.pair_coupling_blocks(1, x, np.ones((2, 1))), "delta", True),
    "even_ratio_interpolant": (lambda c, x: lgmodes.even_ratio_interpolant(x, 0.1), "cutoff", False),
    "sector_coupling-cutoff": (lambda c, x: lgmodes.sector_coupling(x, 0, 0.0), "cutoff", False),
    "sector_coupling-delta": (lambda c, x: lgmodes.sector_coupling(1, x, 0.0), "delta", True),
    "SolverConfig-cutoff": (lambda c, x: ipe.SolverConfig(cutoff=x), "cutoff", False),
    "SolverConfig-steps": (lambda c, x: ipe.SolverConfig(steps=x), "steps", False),
    "generator_parts-cutoff": (lambda c, x: ipe.generator_parts(x, 0, EXACT), "cutoff", False),
    "generator_parts-delta": (lambda c, x: ipe.generator_parts(1, x, EXACT), "delta", True),
    "sector_spectrum-cutoff": (lambda c, x: ipe.sector_spectrum(x, 0, EXACT), "cutoff", False),
    "sector_spectrum-delta": (lambda c, x: ipe.sector_spectrum(1, x, EXACT), "delta", True),
    "rk4_nodes": (lambda c, x: ipe.rk4_nodes(c.profile, c.geom, x), "steps", False),
    "cutoff_bracketing": (lambda c, x: ipe.cutoff_bracketing([0.0, 0.1], [x]), "cutoff", False),
    "mode_vectors": (lambda c, x: c.kernel.mode_vectors(x), "count", False),
    "channel_kernel-grid_order": (
        lambda c, x: temporal.channel_kernel(c.spec, c.profile, c.geom, grid_order=x), "grid_order", False),
    "channel_kernel-cutoff": (
        lambda c, x: temporal.channel_kernel(c.spec, c.profile, c.geom, 4, FULL_IPE, cutoff=x), "cutoff", False),
    "channel_kernel-steps": (
        lambda c, x: temporal.channel_kernel(c.spec, c.profile, c.geom, 4, FULL_IPE, steps=x), "steps", False),
    "mode_trace": (lambda c, x: temporal.mode_trace(c.kernel, c.spec, x), "n", False),
    "transmission_matrix": (lambda c, x: temporal.transmission_matrix(c.kernel, c.spec, x), "max_mode", False),
    "mode_pair-m": (lambda c, x: entanglement.TwoPhotonState.mode_pair(x, 1, 4), "m", False),
    "mode_pair-n": (lambda c, x: entanglement.TwoPhotonState.mode_pair(0, x, 4), "n", False),
    "mode_pair-dim": (lambda c, x: entanglement.TwoPhotonState.mode_pair(0, 1, x), "dim", False),
    "TwoPhotonDensity": (lambda c, x: entanglement.TwoPhotonDensity(dim=x, matrix=np.eye(1)), "dim", False),
    "channel_tensor": (lambda c, x: entanglement.channel_tensor(c.kernel, x), "dim", False),
    "robustness_scan-fixed_mode": (
        lambda c, x: entanglement.robustness_scan(c.kernel, c.spec, x, [1], dim=4), "fixed_mode", False),
    "robustness_scan-n_range": (
        lambda c, x: entanglement.robustness_scan(c.kernel, c.spec, 0, [1, x], dim=4), "n", False),
    "robustness_scan-dim": (lambda c, x: entanglement.robustness_scan(c.kernel, c.spec, 0, [1], dim=x), "dim", False),
}
INDEX_VALUES = {"True": True, "1.0": 1.0, "1.5": 1.5, "-1": -1, "str": "1", "nan": math.nan}
POSITIVE_ARGUMENTS = {
    **{
        f"LinkGeometry-{field}": (lambda c, x, field=field: paper_geom(**{field: x}), field, False)
        for field in ("path_length", "transmitter_height", "receiver_height", "waist", "wavelength")
    },
    **{
        f"BiphotonSpec-{field}": (
            lambda c, x, field=field: BiphotonSpec(**{**vars(c.spec), field: x}), field, False)
        for field in ("sigma_a", "sigma_b", "omega_p")
    },
    "big_l_t-lambda1": (lambda c, x: big_l_t(x, 3.95e-6, 1e-15, 1.0), "lambda1", False),
    "big_l_t-lambda2": (lambda c, x: big_l_t(3.95e-6, x, 1e-15, 1.0), "lambda2", False),
    "big_l_t-cn2": (lambda c, x: big_l_t(3.95e-6, 3.95e-6, x, 1.0), r"C_n\^2", True),
    "big_l_t-kappa_0": (lambda c, x: big_l_t(3.95e-6, 3.95e-6, 1e-15, x), "kappa_0", False),
    "distance_sweep-cn2_values": (lambda c, x: ipe.distance_sweep([x], [1e3], 3.95e-6), r"C_n\^2", True),
    "distance_sweep-distances": (lambda c, x: ipe.distance_sweep([1e-15], [1e3, x], 3.95e-6), "distances", False),
    "distance_sweep-wavelength": (lambda c, x: ipe.distance_sweep([1e-15], [1e3], x), "wavelength", False),
    **{
        f"distance_sweep-{name}": (
            lambda c, x, name=name: ipe.distance_sweep([1e-15], [1e3], 3.95e-6, **{name: x}), name, zero_valid)
        for name, zero_valid in (("transmitter_height", False), ("receiver_height", False), ("extinction_per_km", True))
    },
}
POSITIVE_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0, "negative": -2.5}
CONTRACT = [
    pytest.param(call, name, value, id=f"{label}-{value_id}")
    for arguments, values, exempt in (
        (INDEX_ARGUMENTS, INDEX_VALUES, "-1"), (POSITIVE_ARGUMENTS, POSITIVE_VALUES, "zero"))
    for label, (call, name, valid) in arguments.items()
    for value_id, value in values.items()
    if not (valid and value_id == exempt)
]


@pytest.fixture(scope="module")
def contract(paper_spec, paper_geometry):
    """The valid arguments around each bad one: the paper source and link,
    a zero-turbulence profile and its grid-8 kernel."""
    zero = TurbulenceProfile.from_constant(0.0)
    kernel = channel_kernel(paper_spec, zero, paper_geometry, grid_order=8)
    return SimpleNamespace(spec=paper_spec, geom=paper_geometry, profile=zero, kernel=kernel)


@pytest.mark.parametrize("call, name, value", CONTRACT)
def test_refusal_contract(contract, call, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(contract, value)
