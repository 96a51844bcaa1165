import numpy as np
import pytest
from series_oracle import series_from_terms, series_product


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
