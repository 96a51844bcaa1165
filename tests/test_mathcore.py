import math

import numpy as np
import pytest
from scipy.integrate import quad
from series_oracle import series_from_terms, series_product

from turbulink.lgmodes import gamma_weight_matrix
from turbulink.schmidt import UnsupportedOrderError, gauss_hermite_rule, hermite_functions


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


class TestGamma:
    # the library calls the platform's math.gamma, also at negative arguments
    # (reflection); the Gamma weights of the coupling sum read it directly
    def test_half(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_negative_five_sixths_by_reflection(self):
        # reflection formula with Gamma(11/6) from an independent integral;
        # M[0, 0] = Gamma(-5/6)
        g_11_6 = quad(lambda t: t ** (11.0 / 6.0 - 1.0) * math.exp(-t), 0, 60)[0]
        expected = math.pi / (math.sin(-5.0 * math.pi / 6.0) * g_11_6)
        assert gamma_weight_matrix(3)[0, 0] == pytest.approx(expected, rel=1e-9)
        assert gamma_weight_matrix(3)[0, 0] == pytest.approx(-6.6795, abs=5e-4)

    def test_one_sixth_by_integral(self):
        # M[1, 1] = Gamma(1/6) / 2
        expected = quad(lambda t: t ** (1.0 / 6.0 - 1.0) * math.exp(-t), 0, 60)[0]
        assert 2.0 * gamma_weight_matrix(3)[1, 1] == pytest.approx(expected, rel=1e-9)
        assert 2.0 * gamma_weight_matrix(3)[1, 1] == pytest.approx(5.5663, abs=5e-4)

    @pytest.mark.parametrize("x", [0.3, 1.7, -0.4, -3.3, 7.5, 12.0])
    def test_functional_equation(self, x):
        assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-10)


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


class TestSeries:
    """Truncated bivariate series arithmetic of the coefficient oracle in
    tests/series_oracle.py: s[i, j] is the coefficient of d1^i d2^j."""

    def test_product_of_binomials(self):
        a = series_from_terms({(0, 0): 1, (1, 0): 1}, (2, 2))
        b = series_from_terms({(0, 0): 1, (0, 1): 1}, (2, 2))
        product = series_product(a, b)
        assert product[0, 0] == 1
        assert product[1, 0] == 1
        assert product[0, 1] == 1
        assert product[1, 1] == 1

    def test_identity(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-4, 5, (4, 3)).astype(complex)
        one = series_from_terms({(0, 0): 1.0}, (4, 3))
        assert np.array_equal(series_product(a, one), a)

    def test_geometric_series_inverse(self):
        # (1 - d1 d2)^{-1} truncated at (3, 3), term by term
        geometric = series_from_terms({(k, k): 1.0 for k in range(4)}, (4, 4))
        one_minus = series_from_terms({(0, 0): 1.0, (1, 1): -1.0}, (4, 4))
        product = series_product(one_minus, geometric)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(product, expected)

    def test_exponential_coefficient(self):
        # e^{d1} built from powers: coefficient of d1^3 is 1/6
        d1 = series_from_terms({(1, 0): 1.0}, (5, 1))
        total = series_from_terms({(0, 0): 1.0}, (5, 1))
        power = total.copy()
        for k in range(1, 5):
            power = series_product(power, d1) / k
            total = total + power
        assert total[3, 0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert total[0, 0] == 1.0
        assert total[1, 0] == 1.0

    def test_commutative_and_associative_exact(self):
        # small-integer coefficients keep float arithmetic exact
        rng = np.random.default_rng(11)
        shape = (4, 4)
        a = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
        b = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
        c = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
        assert np.array_equal(series_product(a, b), series_product(b, a))
        left = series_product(series_product(a, b), c)
        right = series_product(a, series_product(b, c))
        assert np.array_equal(left, right)

    def test_incompatible_truncations(self):
        a = series_from_terms({(0, 0): 1.0}, (3, 3))
        b = series_from_terms({(0, 0): 1.0}, (4, 3))
        with pytest.raises(ValueError):
            series_product(a, b)
