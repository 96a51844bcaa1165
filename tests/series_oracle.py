"""Generating-function extraction of the LG correlation coefficients.

An independent oracle for `quadrature_oracle.c_coefficients`, which is a
closed form.  Here c_{m,n,j} comes from derivative extraction of a two-parameter
generating function, done in truncated bivariate power-series arithmetic:
a series is a complex array s[i, j], the coefficient of d1^i d2^j, cut at
the radial indices (r_m, r_n) being extracted.  Every coefficient is exact
up to float rounding, and the t dependence enters through
b = (1 + it)/(1 - it) inside the series, not as a factored Gouy phase.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product: the double convolution of the coefficients, cut
    at the shared truncation shape."""
    if a.shape != b.shape:
        raise ValueError("incompatible truncation orders")
    rows, cols = a.shape
    out = np.zeros(a.shape, dtype=complex)
    for i, j in zip(*np.nonzero(a)):
        out[i:, j:] += a[i, j] * b[: rows - i, : cols - j]
    return out


def series_from_terms(terms: dict, shape: tuple) -> np.ndarray:
    """Series from a {(i, j): value} map, dropping terms past the truncation."""
    out = np.zeros(shape, dtype=complex)
    for (i, j), value in terms.items():
        if i < shape[0] and j < shape[1]:
            out[i, j] = value
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _inv_one_minus_d1d2(power: int, shape: tuple) -> np.ndarray:
    # (1 - d1 d2)^{-power}: diagonal binomial coefficients
    return _read_only(series_from_terms(
        {(k, k): math.comb(power - 1 + k, k) for k in range(min(shape))}, shape
    ))


@lru_cache(maxsize=None)
def _binomial(value: complex, power: int, size: int) -> np.ndarray:
    # coefficients of (1 - value d)^power up to d^{size - 1}, power >= 0
    return _read_only(np.array([math.comb(power, k) * (-value) ** k for k in range(size)], dtype=complex))


@lru_cache(maxsize=None)
def _psi_powers(r1: int, r2: int, b: complex) -> np.ndarray:
    # psi^p / p! for p = 0..r1+r2, where psi carries the d-dependence of the
    # shared Gaussian exponent: exp(-X) = e^{-x0} exp(x0 psi),
    # psi = (b d1 + d2/b - 2 d1 d2) / (1 - d1 d2).  Returned flipped and
    # flattened, one row per p, so a dot product with a flattened series s
    # is the d1^r1 d2^r2 coefficient of s psi^p / p!.
    shape = (r1 + 1, r2 + 1)
    psi = series_product(
        _inv_one_minus_d1d2(1, shape),
        series_from_terms({(1, 0): b, (0, 1): 1.0 / b, (1, 1): -2.0}, shape),
    )
    powers = [series_from_terms({(0, 0): 1.0}, shape)]
    for p in range(r1 + r2):
        powers.append(series_product(powers[-1], psi) / (p + 1))
    return np.array(powers)[:, ::-1, ::-1].reshape(len(powers), -1)


@lru_cache(maxsize=None)
def _extract(r1: int, L1: int, r2: int, L2: int, pair_max: int, t: float) -> np.ndarray:
    theta = math.atan(t)
    b = complex(math.cos(2 * theta), math.sin(2 * theta))  # (1 + it)/(1 - it)
    shape = (r1 + 1, r2 + 1)
    powers = _psi_powers(r1, r2, b)
    norm = math.sqrt(
        1.0
        / (
            math.factorial(r1)
            * math.factorial(r1 + L1)
            * math.factorial(r2)
            * math.factorial(r2 + L2)
        )
    )
    kappa = 1j ** (L1 + L2) * np.exp(1j * theta * (L1 - L2)) * norm
    extraction_scale = math.factorial(r1) * math.factorial(r2)

    coeffs = np.zeros(2 * (r1 + r2) + L1 + L2 + 1, dtype=complex)
    for s in range(pair_max + 1):
        # (1 - b d1)^{L2-s} (1 - d2/b)^{L1-s} (1 - d1 d2)^{-(L1+L2-s+1)}
        base = series_product(
            _inv_one_minus_d1d2(L1 + L2 - s + 1, shape),
            np.outer(_binomial(b, L2 - s, r1 + 1), _binomial(1.0 / b, L1 - s, r2 + 1)),
        )
        pair_count = (
            math.factorial(L1)
            * math.factorial(L2)
            / (math.factorial(s) * math.factorial(L1 - s) * math.factorial(L2 - s))
        )
        term_scale = kappa * (-1.0) ** s * pair_count * extraction_scale
        j = L1 + L2 - 2 * s
        coeffs[j : j + 2 * (r1 + r2) + 1 : 2] += term_scale * (powers @ base.reshape(-1))
    coeffs.setflags(write=False)
    return coeffs


def series_c_coefficients(m, n, t: float) -> np.ndarray:
    """c_{m,n,j} at normalized distance t by series extraction; same layout
    as `quadrature_oracle.c_coefficients`."""
    pair_max = (abs(m.l) + abs(n.l) - abs(m.l - n.l)) // 2
    return _extract(m.r, abs(m.l), n.r, abs(n.l), pair_max, float(t)).copy()
