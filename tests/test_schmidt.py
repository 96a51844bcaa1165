import math

import numpy as np
import pytest

from turbulink.schmidt import (
    BiphotonSpec,
    UnsupportedOrderError,
    discrete_modes,
    frequency_grid,
    gauss_hermite_rule,
    hermite_functions,
    schmidt_eigenvalue,
    schmidt_number,
    truncated_source,
)


def mode_amplitude(spec: BiphotonSpec, n: int, omega):
    """Temporal-mode function f_n(omega): the n-th Hermite-Gaussian of the
    detuning from omega_p / 2, orthonormal under the integral over omega."""
    b = spec.gaussian_scale
    value = b**0.25 * hermite_functions(n + 1, np.sqrt(b) * (np.asarray(omega, dtype=float) - spec.center))[n]
    return float(value) if np.ndim(omega) == 0 else value


def equal_band_spec():
    return BiphotonSpec(sigma_a=20e12, sigma_b=20e12, omega_p=9.54e14)


def hermite_by_expansion(n, x):
    # independent oracle: explicit monomial sum H_n(x) = n! sum_m (-1)^m / (m! (n-2m)!) (2x)^{n-2m}
    total = 0.0
    for m in range(n // 2 + 1):
        total += (
            (-1.0) ** m
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2.0 * x) ** (n - 2 * m)
        )
    return math.factorial(n) * total


def hermite_poly(n, x):
    # H_n(x) read back from the library's orthonormal Hermite functions, so
    # these cases check hermite_functions' values and recurrence
    scale = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)) * math.exp(0.5 * x * x)
    return float(hermite_functions(n + 1, x)[n]) * scale


class TestEigenvalues:
    def test_paper_values(self, paper_spec):
        values = [schmidt_eigenvalue(paper_spec, n) for n in range(4)]
        assert values == pytest.approx([0.395, 0.239, 0.145, 0.087], abs=5e-4)

    def test_degenerate_bandwidths(self):
        spec = equal_band_spec()
        assert schmidt_eigenvalue(spec, 0) == 1.0
        assert schmidt_eigenvalue(spec, 1) == 0.0
        assert schmidt_eigenvalue(spec, 5) == 0.0

    @pytest.mark.parametrize("ratio", [1.5, 4.0, 8.0, 20.0])
    def test_completeness(self, ratio):
        spec = BiphotonSpec(sigma_a=10e12, sigma_b=10e12 * ratio, omega_p=9.54e14)
        total = sum(schmidt_eigenvalue(spec, n) for n in range(201))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_geometric_ratio_and_strict_decrease(self, paper_spec):
        sa, sb = paper_spec.sigma_a, paper_spec.sigma_b
        expected = ((sa - sb) / (sa + sb)) ** 2
        assert 0.0 < expected < 1.0
        for n in range(12):
            ratio = schmidt_eigenvalue(paper_spec, n + 1) / schmidt_eigenvalue(paper_spec, n)
            assert ratio == pytest.approx(expected, rel=1e-13)
            assert schmidt_eigenvalue(paper_spec, n + 1) < schmidt_eigenvalue(paper_spec, n)

    def test_index_guard(self, paper_spec):
        with pytest.raises(UnsupportedOrderError):
            schmidt_eigenvalue(paper_spec, 201)

    @pytest.mark.parametrize("n", [1.5, True, 2.0, "1"])
    def test_index_must_be_an_int(self, paper_spec, n):
        # 1.5 and True used to return values
        with pytest.raises(ValueError, match="^n must be an int"):
            schmidt_eigenvalue(paper_spec, n)
        with pytest.raises(UnsupportedOrderError):
            schmidt_eigenvalue(paper_spec, -1)


class TestSchmidtNumber:
    def test_paper_value(self, paper_spec):
        assert schmidt_number(paper_spec) == pytest.approx(4.0625, abs=1e-12)

    def test_separable(self):
        assert schmidt_number(equal_band_spec()) == 1.0

    def test_wideband_approximation(self, paper_spec):
        approx = paper_spec.sigma_b / (2.0 * paper_spec.sigma_a)
        assert schmidt_number(paper_spec) == pytest.approx(approx, rel=0.02)

    def test_inverse_purity(self, paper_spec):
        total = 0.0
        n = 0
        while True:
            lam = schmidt_eigenvalue(paper_spec, n)
            if lam < 1e-16:
                break
            total += lam * lam
            n += 1
        assert schmidt_number(paper_spec) * total == pytest.approx(1.0, abs=1e-10)


class TestModeAmplitude:
    def test_fundamental_at_center(self, paper_spec):
        b = paper_spec.gaussian_scale
        value = mode_amplitude(paper_spec, 0, paper_spec.center)
        assert value == pytest.approx((b / math.pi) ** 0.25, rel=1e-13)

    def test_first_mode_zero_at_center(self, paper_spec):
        assert mode_amplitude(paper_spec, 1, paper_spec.center) == pytest.approx(0.0, abs=1e-20)

    def test_parity(self, paper_spec):
        for n in range(6):
            for delta in (0.3e13, 1.1e13, 2.7e13):
                plus = mode_amplitude(paper_spec, n, paper_spec.center + delta)
                minus = mode_amplitude(paper_spec, n, paper_spec.center - delta)
                assert plus == pytest.approx((-1.0) ** n * minus, rel=1e-12, abs=1e-18)

    def test_gram_matrix_orthonormal(self, paper_spec):
        rule = gauss_hermite_rule(64)
        b = paper_spec.gaussian_scale
        omegas = frequency_grid(paper_spec, 64)
        modes = np.array([mode_amplitude(paper_spec, n, omegas) for n in range(11)])
        # int f_m f_n domega with the Gaussian weight folded into the rule
        scaled = modes * np.exp(0.5 * rule.nodes**2) * np.sqrt(rule.weights) / b**0.25
        gram = scaled @ scaled.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    @pytest.mark.parametrize("order", [3.0, True, 2.5])
    def test_grid_order_must_be_an_int(self, paper_spec, order):
        # checked before the cached rule; 3.0 used to fail with a TypeError
        # from numpy, or hit the cached order-3 rule
        frequency_grid(paper_spec, 3)
        with pytest.raises(ValueError, match="^order must be an int"):
            frequency_grid(paper_spec, order)

    def test_discrete_modes_orthonormal(self, paper_spec):
        psi = discrete_modes(64)[:11]
        gram = psi @ psi.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    def test_order_guard(self, paper_spec):
        with pytest.raises(UnsupportedOrderError):
            mode_amplitude(paper_spec, 65, paper_spec.center)


class TestTruncatedSource:
    @pytest.mark.parametrize("max_mode", [2.5, True, 3.0])
    def test_max_mode_must_be_an_int(self, paper_spec, max_mode):
        # 2.5 used to fail with a TypeError from range
        with pytest.raises(ValueError, match="^max_mode must be an int"):
            truncated_source(paper_spec, max_mode)
        with pytest.raises(UnsupportedOrderError):
            truncated_source(paper_spec, -1)

    def test_paper_discarded_mass(self, paper_spec):
        source = truncated_source(paper_spec, 3)
        assert source.discarded_mass == pytest.approx(0.134, abs=1e-3)

    def test_norm_prefactor(self, paper_spec):
        source = truncated_source(paper_spec, 3)
        kept = sum(schmidt_eigenvalue(paper_spec, n) for n in range(4))
        assert source.norm_prefactor == pytest.approx(kept**-0.5, rel=1e-13)
        assert source.norm_prefactor == pytest.approx(1.074, abs=1e-3)

    def test_weights_normalized(self, paper_spec):
        source = truncated_source(paper_spec, 3)
        assert float(np.sum(source.weights**2)) == pytest.approx(1.0, abs=1e-12)

    def test_separable_single_mode(self):
        source = truncated_source(equal_band_spec(), 0)
        assert source.weights == pytest.approx([1.0], abs=1e-15)
        assert source.discarded_mass == pytest.approx(0.0, abs=1e-15)


class TestValidation:
    def test_positive_bandwidths(self):
        with pytest.raises(ValueError):
            BiphotonSpec(sigma_a=-1.0, sigma_b=1e12, omega_p=1e14)
        with pytest.raises(ValueError):
            BiphotonSpec(sigma_a=1e12, sigma_b=1e12, omega_p=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field, message",
        [("sigma_a", "bandwidths"), ("sigma_b", "bandwidths"), ("omega_p", "pump frequency")],
    )
    def test_non_finite_values_refused(self, field, message, value):
        params = dict(sigma_a=10e12, sigma_b=80e12, omega_p=9.54e14)
        params[field] = value
        with pytest.raises(ValueError, match=f"{message} must be positive"):
            BiphotonSpec(**params)


class TestHermite:
    def test_h0_is_one(self):
        assert hermite_poly(0, 3.7) == pytest.approx(1.0, rel=1e-14)

    def test_h2_value(self):
        assert hermite_poly(2, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_h5_against_expansion_oracle(self):
        assert hermite_poly(5, 0.5) == pytest.approx(hermite_by_expansion(5, 0.5), rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_recurrence(self, n):
        for x in np.linspace(-5.0, 5.0, 11):
            lhs = hermite_poly(n + 1, x)
            rhs = 2.0 * x * hermite_poly(n, x) - 2.0 * n * hermite_poly(n - 1, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-9)

    def test_order_guard(self):
        with pytest.raises(UnsupportedOrderError):
            hermite_functions(66, 0.0)
        with pytest.raises(UnsupportedOrderError):
            hermite_functions(0, 0.0)

    def test_stack_rows_do_not_depend_on_count(self):
        x = np.linspace(-9.0, 9.0, 37)
        stack = hermite_functions(65, x)
        assert stack.shape == (65, 37)
        for n in range(65):
            assert np.array_equal(hermite_functions(n + 1, x), stack[: n + 1])
        with pytest.raises(UnsupportedOrderError):
            hermite_functions(0, x)
        with pytest.raises(UnsupportedOrderError):
            hermite_functions(66, x)

    def test_hermite_functions_orthonormal_at_guard_edge(self):
        # normalized recurrence must stay stable through n = 64
        rule = gauss_hermite_rule(128)
        weights = rule.weights * np.exp(rule.nodes**2)
        for n in (32, 63, 64):
            phi = hermite_functions(n + 1, rule.nodes)
            phi_n, phi_m = phi[n], phi[n - 30]
            assert np.dot(weights, phi_n * phi_n) == pytest.approx(1.0, abs=1e-9)
            assert abs(np.dot(weights, phi_n * phi_m)) < 1e-9


class TestGaussHermite:
    def test_two_point_rule(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-1.0 / math.sqrt(2), 1.0 / math.sqrt(2)], abs=1e-14)
        assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)

    def test_zeroth_moment(self):
        for order in (2, 8, 40, 128):
            rule = gauss_hermite_rule(order)
            assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_fourth_moment_order_40(self):
        rule = gauss_hermite_rule(40)
        value = np.dot(rule.weights, rule.nodes**4)
        assert value == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, rel=1e-12)

    @pytest.mark.parametrize("order", [3, 5, 13])
    def test_moment_exactness_up_to_2n_minus_1(self, order):
        rule = gauss_hermite_rule(order)
        for k in range(2 * order):
            value = np.dot(rule.weights, rule.nodes**k)
            if k % 2 == 1:
                scale = np.dot(rule.weights, np.abs(rule.nodes) ** k)
                assert abs(value) < 1e-13 * max(scale, 1.0)
            else:
                exact = math.gamma((k + 1) / 2.0)
                assert value == pytest.approx(exact, rel=1e-12)

    def test_symmetry(self):
        rule = gauss_hermite_rule(17)
        assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-14)

    def test_rule_cached_per_order_and_read_only(self):
        rule = gauss_hermite_rule(32)
        assert gauss_hermite_rule(32) is rule
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_order_guards(self):
        with pytest.raises(UnsupportedOrderError):
            gauss_hermite_rule(1)
        with pytest.raises(UnsupportedOrderError):
            gauss_hermite_rule(129)
