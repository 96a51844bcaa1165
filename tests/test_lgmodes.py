import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import dense_pair_coupling, dense_pair_tensor, dense_sector, selection_mask
from exact_oracle import exact_entry
from scipy.integrate import quad
from series_oracle import series_c_coefficients

from turbulink.lgmodes import (
    COUPLING_PREFACTOR,
    DECAY_CONSTANT,
    MAX_COUPLING_CUTOFF,
    MAX_ORACLE_INDEX,
    LGIndex,
    ModeBasis,
    OracleIndexError,
    c_coefficients,
    coupling_numeric_oracle,
    coupling_oracle_extrapolated,
    coupling_tensor,
    free_prop_S,
    free_prop_S_numeric,
    lg_momentum_amplitude,
    pair_coupling_assembler,
    radial_rule,
    sector_blocks,
    sector_coupling,
    sector_orders,
)
from turbulink.lgmodes import _axis_coefficients, _axis_values, _real_sector
from turbulink.turbulence import big_l_t, l_cross, l_strength

W0 = 0.1457
LAM = 3.95e-6
Z_R = math.pi * W0**2 / LAM
CN2 = 1e-15

LOW_ORDER = [LGIndex(l=l, r=r) for l in (-2, -1, 0, 1, 2) for r in (0, 1, 2)]
OMEGA_C = 2.0 * math.pi * 299792458.0 / LAM


CARRIER_PAIRS = ((0.9 * OMEGA_C, 0.93 * OMEGA_C), (1.1 * OMEGA_C, 0.8 * OMEGA_C), (OMEGA_C, 1.2 * OMEGA_C))


def carrier_tables(z):
    """(ratio, phase) for CARRIER_PAIRS at z: each carrier's a_i / mean(a),
    which `pair_coupling_assembler` takes, and pi/2 + atan t_i."""
    t = z / (math.pi * W0**2 / (2.0 * math.pi * 299792458.0 / np.array(CARRIER_PAIRS).T))
    area = 1.0 + t * t
    return area / (0.5 * (area[0] + area[1])), np.arctan(t) + 0.5 * math.pi


def diagonal_phases(phase, cutoff, delta):
    """e^{i(phi1 N_m - phi2 N_n)} on each entry (p, r_m, r_n) of sector delta
    for each carrier pair, phi_i the (2, batch) `phase` of `carrier_tables`."""
    n_row, n_col = sector_orders(cutoff, delta)
    return np.exp(1j * (phase[0][:, None] * n_row - phase[1][:, None] * n_col))


def dense_pair_sectors(cutoff, delta, z):
    """Sector delta of the dense two-frequency coefficient sum for each of
    CARRIER_PAIRS, in the assembler's [(q, r_u, r_v), (p, r_m, r_n)] form."""
    basis = ModeBasis(cutoff)
    for pair in CARRIER_PAIRS:
        dense = dense_pair_coupling(basis, z, CN2, W0, pair) / (COUPLING_PREFACTOR * l_cross(z, *pair, CN2, W0))
        yield dense_sector(dense.transpose(0, 2, 1, 3), cutoff, delta)


def gamma_weights(j_count):
    """M[j1, j2] = 2^{-(j1+j2)/2} Gamma((j1+j2)/2 - 5/6): the radial integral
    of the coefficient double sum in closed form, which the library's node
    rule replaces (the Gamma argument is never an integer, so never a pole)."""
    half = 0.5 * np.add.outer(np.arange(j_count), np.arange(j_count))
    return 2.0**-half * np.vectorize(math.gamma)(half - 5.0 / 6.0)


def coupling_element(m, n, u, v, z, cn2, w0, frequencies):
    """Reference L_{m,n,u,v}(z), one element at a time: the Gamma-weighted
    double sum over the coefficient arrays of (m, u) and (n, v).

    frequencies is a wavelength (m) or an angular-frequency pair (rad/s); a
    pair evaluates each array at its own normalized distance and rescales it
    from its beam area to the mean of the two.
    """
    if m.l - u.l != n.l - v.l:
        return 0j
    if isinstance(frequencies, tuple):
        omega1, omega2 = frequencies
        lam1, lam2 = (2.0 * math.pi * 299792458.0 / omega for omega in frequencies)
        t1 = lam1 * z / (math.pi * w0**2)
        t2 = lam2 * z / (math.pi * w0**2)
        a1 = (1.0 + t1 * t1) * w0**2
        a2 = (1.0 + t2 * t2) * w0**2
        a_mean = 0.5 * (a1 + a2)
        c1 = c_coefficients(m, u, t1)
        c2 = c_coefficients(n, v, t2)
        c1 = c1 * (a1 / a_mean) ** (0.5 * np.arange(len(c1)))
        c2 = c2 * (a2 / a_mean) ** (0.5 * np.arange(len(c2)))
        rate = l_cross(z, omega1, omega2, cn2, w0)
    else:
        t = frequencies * z / (math.pi * w0**2)
        c1, c2 = c_coefficients(m, u, t), c_coefficients(n, v, t)
        rate = l_strength(z, cn2, frequencies, w0)
    weights = gamma_weights(max(len(c1), len(c2)))[: len(c1), : len(c2)]
    return COUPLING_PREFACTOR * rate * complex(c1 @ weights @ np.conj(c2))


def overlap_W(m, n, K, phi, z, w0, wavelength):
    """Modal correlation function W_{m,n}(K, phi, z) via the coefficient expansion."""
    t = z / (math.pi * w0**2 / wavelength)
    x0 = K * K * (1.0 + t * t) * w0**2 / 8.0
    coeffs = c_coefficients(m, n, t)
    radial = np.sum(coeffs * x0 ** (0.5 * np.arange(len(coeffs)))) * math.exp(-x0)
    return complex(radial * np.exp(1j * (m.l - n.l) * phi))


def overlap_W_numeric(m, n, K, phi, z, w0, wavelength, grid_points=121, grid_halfwidth=9.0):
    """Oracle evaluation of W_{m,n} by direct 2D convolution of momentum amplitudes.

    W(K) = int G_m(K1) G_n*(K1 - K) d^2K1 / 4 pi^2 on a trapezoid grid; the
    Gaussian decay of the amplitudes makes the trapezoid rule spectrally
    accurate once the grid covers the support.
    """
    t = z / (math.pi * w0**2 / wavelength)
    half = grid_halfwidth * math.sqrt(1.0 + t * t) / w0
    axis = np.linspace(-half, half, grid_points)
    step = axis[1] - axis[0]
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    sx, sy = kx - K * math.cos(phi), ky - K * math.sin(phi)
    values = lg_momentum_amplitude(m, np.hypot(kx, ky), np.arctan2(ky, kx), t, w0) * np.conj(
        lg_momentum_amplitude(n, np.hypot(sx, sy), np.arctan2(sy, sx), t, w0)
    )
    return complex(values.sum() * step * step / (4.0 * math.pi**2))


class TestBasis:
    def test_size_and_uniqueness(self):
        for cutoff in range(5):
            basis = ModeBasis(cutoff)
            assert basis.size == (2 * cutoff + 1) * (cutoff + 1)
            assert len(set(basis.indices)) == basis.size

    def test_deterministic_ordering(self):
        basis = ModeBasis(1)
        assert basis.indices == (
            LGIndex(l=-1, r=0),
            LGIndex(l=-1, r=1),
            LGIndex(l=0, r=0),
            LGIndex(l=0, r=1),
            LGIndex(l=1, r=0),
            LGIndex(l=1, r=1),
        )

    def test_position_lookup(self):
        basis = ModeBasis(2)
        for k, idx in enumerate(basis.indices):
            assert basis.position(idx) == k
        with pytest.raises(KeyError):
            basis.position(LGIndex(l=3, r=0))

    def test_negative_radial_rejected(self):
        with pytest.raises(ValueError):
            LGIndex(l=0, r=-1)

    @pytest.mark.parametrize(
        "fields, name", [({"l": 0.5, "r": 0}, "l"), ({"l": True, "r": 0}, "l"), ({"l": "0", "r": 0}, "l"),
                         ({"l": 0, "r": True}, "r"), ({"l": 0, "r": 1.0}, "r"), ({"l": 0, "r": -1}, "r")],
    )
    def test_indices_must_be_ints(self, fields, name):
        # a float index used to be accepted and a bool read as 0 or 1
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            LGIndex(**fields)

    def test_numpy_integer_indices_accepted(self):
        assert LGIndex(l=np.int64(-2), r=np.int32(1)) == LGIndex(l=-2, r=1)
        assert ModeBasis(np.int64(2)).indices == ModeBasis(2).indices

    @pytest.mark.parametrize("cutoff", [1.5, 1.0, True, -1, "1", None])
    def test_cutoff_must_be_a_non_negative_int(self, cutoff):
        # checked before the per-cutoff index lookup, where 1.0 and True would hit cutoff 1
        ModeBasis(1)
        with pytest.raises(ValueError, match=f"^cutoff must be a non-negative int, not {cutoff!r}$"):
            ModeBasis(cutoff)

    def test_indices_shared_per_cutoff(self):
        for cutoff in range(5):
            basis = ModeBasis(cutoff)
            assert basis.indices is ModeBasis(cutoff).indices
            assert basis.fundamental == basis.position(LGIndex(l=0, r=0))
            assert basis.indices[basis.fundamental] == LGIndex(l=0, r=0)

    def test_delta_beyond_the_basis_refused(self):
        # sector functions used to fail inside a reshape, and sector_blocks
        # returned a negative count
        assert sector_blocks(1, 2) == (2, 0, 1) and sector_blocks(1, -2) == (0, 2, 1)
        for call in (lambda: sector_blocks(1, 7), lambda: sector_blocks(1, -3), lambda: sector_orders(1, 3),
                     lambda: sector_coupling(1, 9, 0.0), lambda: pair_coupling_assembler(1, 1, -5)):
            with pytest.raises(ValueError, match="^delta must lie in"):
                call()

    @pytest.mark.parametrize("cutoff", range(5))
    def test_sector_orders_are_twice_the_gouy_weights(self, cutoff):
        # entry (p, r_m, r_n) of sector delta pairs mode m of row l-block
        # lo_row + p with mode n of column l-block lo_col + p; the cached
        # arrays are read-only
        basis, side = ModeBasis(cutoff), cutoff + 1
        weights = np.array([idx.gouy_weight for idx in basis.indices]).reshape(-1, side)
        for delta in range(-2 * cutoff, 2 * cutoff + 1):
            lo_row, lo_col, count = sector_blocks(cutoff, delta)
            n_row, n_col = sector_orders(cutoff, delta)
            entries = itertools.product(range(count), range(side), range(side))
            expected = [(2 * weights[lo_row + p, a], 2 * weights[lo_col + p, b]) for p, a, b in entries]
            assert np.array_equal(np.stack([n_row, n_col], axis=1), expected)
            assert not n_row.flags.writeable and not n_col.flags.writeable


class TestMomentumAmplitude:
    def test_fundamental_at_origin(self):
        # at K = 0, t = 0 the generating function value is pi * N with
        # N = sqrt(2/pi), times the w0 units factor
        value = lg_momentum_amplitude(LGIndex(l=0, r=0), 0.0, 0.0, 0.0, W0)
        assert value == pytest.approx(W0 * math.pi * math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_azimuthal_phase(self):
        idx = LGIndex(l=2, r=1)
        base = lg_momentum_amplitude(idx, 3.0 / W0, 0.4, 0.6, W0)
        shifted = lg_momentum_amplitude(idx, 3.0 / W0, 0.4 + 0.9, 0.6, W0)
        assert shifted == pytest.approx(base * np.exp(1j * 2 * 0.9), rel=1e-12)

    @pytest.mark.parametrize("l,r", [(0, 0), (0, 1), (1, 0), (1, 1), (-2, 1), (3, 2), (8, 8)])
    def test_normalization(self, l, r):
        idx = LGIndex(l=l, r=r)
        # the grid covers the mode's support, which passes 9 / w0 only at high order
        half = max(9.0, 3.0 * math.sqrt(2 * r + abs(l) + 1)) / W0
        axis = np.linspace(-half, half, 161)
        step = axis[1] - axis[0]
        kx, ky = np.meshgrid(axis, axis, indexing="ij")
        amp = lg_momentum_amplitude(idx, np.hypot(kx, ky), np.arctan2(ky, kx), 0.7, W0)
        norm = np.sum(np.abs(amp) ** 2) * step * step / (4.0 * math.pi**2)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_index_guard(self):
        with pytest.raises(OracleIndexError):
            lg_momentum_amplitude(LGIndex(l=9, r=0), 1.0, 0.0, 0.0, W0)


class TestCoefficients:
    def test_fundamental_pair_is_identity(self):
        for t in (0.0, 0.35, 1.0):
            values = c_coefficients(LGIndex(l=0, r=0), LGIndex(l=0, r=0), t)
            assert values[0] == pytest.approx(1.0, rel=1e-14)
            assert len(values) == 1

    def test_orthonormality_at_zero_displacement(self):
        # j = 0 coefficient is the modal Kronecker delta
        for m, n in itertools.product(LOW_ORDER, LOW_ORDER):
            values = c_coefficients(m, n, 0.7)
            expected = 1.0 if m == n else 0.0
            assert abs(values[0] - expected) < 1e-12

    def test_parity_rule(self):
        for m, n in itertools.product(LOW_ORDER, LOW_ORDER):
            values = c_coefficients(m, n, 0.5)
            parity = (abs(m.l) + abs(n.l)) % 2
            for j, value in enumerate(values):
                if j % 2 != parity:
                    assert value == 0.0

    def test_support_bound_is_attained(self):
        # top coefficient j = 2(r_m + r_n) + |l_m| + |l_n| is generically nonzero
        values = c_coefficients(LGIndex(l=0, r=3), LGIndex(l=0, r=0), 0.0)
        assert len(values) == 7
        assert abs(values[6]) > 1e-12

    def test_closed_forms_at_waist(self):
        # hand-derived low-order values
        i00, i10 = LGIndex(l=0, r=0), LGIndex(l=0, r=1)
        i01, i11 = LGIndex(l=1, r=0), LGIndex(l=1, r=1)
        assert c_coefficients(i10, i00, 0.0) == pytest.approx([0, 0, 1], abs=1e-14)
        assert c_coefficients(i01, i00, 0.0) == pytest.approx([0, 1j], abs=1e-14)
        assert c_coefficients(i10, i10, 0.0) == pytest.approx([1, 0, -2, 0, 1], abs=1e-13)
        assert c_coefficients(i11, i01, 0.0) == pytest.approx(
            [0, 0, math.sqrt(2), 0, -1 / math.sqrt(2)], abs=1e-13
        )

    def test_gouy_phase_factorization(self):
        # c(t) equals c(0) times the Gouy phase b^{gamma_m - gamma_n}
        t = 0.8
        b = complex(math.cos(2 * math.atan(t)), math.sin(2 * math.atan(t)))
        for m, n in itertools.product(LOW_ORDER[:9], LOW_ORDER[:9]):
            phase = b ** (m.gouy_weight - n.gouy_weight)
            direct = c_coefficients(m, n, t)
            mapped = phase * c_coefficients(m, n, 0.0)
            assert np.max(np.abs(direct - mapped)) < 1e-12

    @pytest.mark.parametrize("cutoff", range(7))
    def test_real_up_to_diagonal_phases(self, cutoff):
        # c(0)[j, m, u] = i^{N_m - N_u} x real with N = 2r + |l| = 2 gouy_weight,
        # so at any t, c(t)[j, m, u] = e^{i(pi/2 + atan t)(N_m - N_u)} R[j, m, u]
        # with R real, the factorization the coupling blocks are built on
        basis = ModeBasis(cutoff)
        orders = np.array([2 * idx.r + abs(idx.l) for idx in basis.indices])
        assert all(idx.gouy_weight == n / 2 for idx, n in zip(basis.indices, orders))
        for (a, m), (b, u) in itertools.product(enumerate(basis.indices), repeat=2):
            quarter_turned = c_coefficients(m, u, 0.0) * (-1j) ** ((orders[a] - orders[b]) % 4)
            assert np.all(quarter_turned.imag == 0.0)
            real = quarter_turned.real
            # both phases are exponentials of arguments up to 12 cutoff (pi/2 + atan 2),
            # 64 rad at cutoff 6, whose rounding alone reaches 7e-15
            for t in (0.0, 0.3, 2.0):
                values = c_coefficients(m, u, t)
                phase = np.exp(1j * (0.5 * math.pi + math.atan(t)) * (orders[a] - orders[b]))
                assert np.max(np.abs(values - phase * real[: len(values)])) <= 1e-14 * np.max(np.abs(values))

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_matches_series_oracle(self, t):
        # every pair up to the index guard, against the generating-function
        # extraction, relative to each pair's largest coefficient
        basis = ModeBasis(8)
        for m, n in itertools.product(basis.indices, basis.indices):
            expected = series_c_coefficients(m, n, t)
            values = c_coefficients(m, n, t)
            assert len(values) == len(expected)
            assert np.max(np.abs(values - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("cutoff", range(MAX_COUPLING_CUTOFF + 1))
    def test_node_values_match_the_coefficients(self, cutoff):
        # the recurrence values of each one-axis element at the rule's nodes
        # (and at twice them) are its coefficient series summed there, up
        # to the quarter turns, for every quanta pair a cutoff reads; the
        # series' own rounding is bounded by the sum of its terms' moduli
        nodes = radial_rule(max(1, 3 * cutoff))[0]
        x = np.stack([0.5 * nodes, nodes])[..., None]
        values = _axis_values(x[..., 0], 2 * cutoff)
        assert values.shape == ((2 * cutoff + 1) ** 2, 2, len(nodes))
        for a, b in itertools.product(range(2 * cutoff + 1), repeat=2):
            coefficients = (_axis_coefficients(a, b) * (-1j) ** abs(a - b)).real
            terms = coefficients * x ** (0.5 * np.arange(len(coefficients)))
            error = np.abs(values[min(a, b) * (2 * cutoff + 1) + abs(a - b)] - terms.sum(axis=-1))
            assert np.all(error <= 1e-14 * np.abs(terms).sum(axis=-1))

    def test_index_guard(self):
        with pytest.raises(OracleIndexError):
            c_coefficients(LGIndex(l=0, r=9), LGIndex(l=0, r=0), 0.0)
        with pytest.raises(OracleIndexError):
            sector_coupling(9, 0, 0.0)

    def test_oracle_agreement_first_radial(self):
        # (r=1,l=0) x (0,0) against the convolution oracle at 20 wavenumbers
        m, n = LGIndex(l=0, r=1), LGIndex(l=0, r=0)
        for K in np.linspace(0.05, 3.0, 20) / W0:
            a = overlap_W(m, n, K, 0.3, 0.0, W0, LAM)
            b = overlap_W_numeric(m, n, K, 0.3, 0.0, W0, LAM)
            assert abs(a - b) <= 1e-8 * abs(a)


class TestOverlapW:
    def test_fundamental_gaussian(self):
        for t in (0.0, 1.0):
            z = t * Z_R
            a = (1.0 + t * t) * W0**2
            for K in (0.1 / W0, 1.0 / W0, 3.0 / W0):
                value = overlap_W(LGIndex(l=0, r=0), LGIndex(l=0, r=0), K, 0.2, z, W0, LAM)
                assert value == pytest.approx(math.exp(-K * K * a / 8.0), rel=1e-13)

    def test_zero_displacement_is_kronecker(self):
        for m, n in itertools.product(LOW_ORDER[:8], LOW_ORDER[:8]):
            value = overlap_W(m, n, 0.0, 0.0, 0.5 * Z_R, W0, LAM)
            expected = 1.0 if m == n else 0.0
            assert abs(value - expected) < 1e-12

    def test_higher_order_pairs_against_oracle(self):
        # spot checks near the extraction guard, where factorial scalings
        # would expose any normalization slip
        pairs = [
            (LGIndex(l=0, r=4), LGIndex(l=0, r=3)),
            (LGIndex(l=3, r=2), LGIndex(l=3, r=0)),
            (LGIndex(l=-4, r=1), LGIndex(l=-2, r=2)),
            (LGIndex(l=5, r=0), LGIndex(l=5, r=1)),
        ]
        for m, n in pairs:
            for kw in (0.8, 2.5):
                a = overlap_W(m, n, kw / W0, 1.1, 0.6 * Z_R, W0, LAM)
                b = overlap_W_numeric(m, n, kw / W0, 1.1, 0.6 * Z_R, W0, LAM, grid_points=141)
                assert abs(a - b) <= 2e-6 * max(abs(a), abs(b), 1e-3)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_against_convolution_oracle(self, t):
        pairs = [
            (LGIndex(l=0, r=0), LGIndex(l=0, r=0)),
            (LGIndex(l=1, r=0), LGIndex(l=0, r=0)),
            (LGIndex(l=1, r=1), LGIndex(l=1, r=0)),
            (LGIndex(l=2, r=1), LGIndex(l=1, r=1)),
            (LGIndex(l=-1, r=1), LGIndex(l=1, r=0)),
            (LGIndex(l=2, r=2), LGIndex(l=-2, r=1)),
            (LGIndex(l=0, r=2), LGIndex(l=0, r=2)),
        ]
        z = t * Z_R
        for m, n in pairs:
            for kw in (0.1, 1.0, 3.0):
                a = overlap_W(m, n, kw / W0, 0.7, z, W0, LAM)
                b = overlap_W_numeric(m, n, kw / W0, 0.7, z, W0, LAM)
                assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-3)


class TestFreeProp:
    def test_fundamental(self):
        value = free_prop_S(LGIndex(l=0, r=0), LGIndex(l=0, r=0), Z_R)
        assert value == pytest.approx(0.5j / Z_R, rel=1e-14)

    def test_radial_neighbor(self):
        value = free_prop_S(LGIndex(l=0, r=1), LGIndex(l=0, r=0), Z_R)
        assert value == pytest.approx(0.5j / Z_R, rel=1e-14)

    def test_azimuthal_mismatch_vanishes(self):
        assert free_prop_S(LGIndex(l=1, r=0), LGIndex(l=0, r=0), Z_R) == 0

    def test_distant_radial_vanishes(self):
        assert free_prop_S(LGIndex(l=0, r=2), LGIndex(l=0, r=0), Z_R) == 0

    def test_closed_form_matches_integral(self):
        # every low-order pair, including the structural zeros
        for m, n in itertools.product(LOW_ORDER, LOW_ORDER):
            closed = free_prop_S(m, n, Z_R)
            numeric = free_prop_S_numeric(m, n, Z_R, W0)
            assert abs(closed - numeric) * Z_R < 1e-6

    def test_pure_imaginary(self):
        for m, n in itertools.product(LOW_ORDER, LOW_ORDER):
            assert free_prop_S(m, n, Z_R).real == 0.0


class TestCouplingStrength:
    def test_fundamental_decay_rate(self):
        for z in (0.0, 0.5 * Z_R, Z_R):
            value = coupling_tensor(ModeBasis(0), z, CN2, W0, LAM).entries[0, 0, 0, 0]
            expected = -DECAY_CONSTANT * l_strength(z, CN2, LAM, W0)
            assert value.real == pytest.approx(expected, rel=1e-12)
            assert abs(value.imag) < 1e-18
            assert value.real / l_strength(z, CN2, LAM, W0) == pytest.approx(-54.10, abs=0.02)

    @pytest.mark.parametrize(
        "z, cn2, w0, wavelength, message",
        [(Z_R, -1.0, W0, LAM, "C_n\\^2"), (Z_R, math.nan, W0, LAM, "C_n\\^2"), (-100.0, CN2, W0, LAM, "^z must"),
         (math.nan, CN2, W0, LAM, "^z must"), (math.inf, CN2, W0, LAM, "^z must"), (Z_R, CN2, 0.0, LAM, "^w0 must"),
         (Z_R, CN2, W0, -LAM, "^wavelength must")],
    )
    def test_bad_physical_inputs_refused(self, z, cn2, w0, wavelength, message):
        # C_n^2 = -1 used to give entries up to 5.9e11, z = -100 a sign-flipped
        # tensor, z = nan NaN entries and w0 = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match=message):
            coupling_tensor(ModeBasis(1), z, cn2, w0, wavelength)
        assert not np.any(coupling_tensor(ModeBasis(1), Z_R, 0.0, W0, LAM).entries)

    def test_selection_rule(self):
        m = LGIndex(l=1, r=0)
        n = LGIndex(l=0, r=0)
        u = LGIndex(l=0, r=0)
        v = LGIndex(l=0, r=1)
        # l_m - l_u - l_n + l_v = 1: structurally zero
        basis = ModeBasis(1)
        tensor = coupling_tensor(basis, Z_R, CN2, W0, LAM).entries
        a, b, c, d = (basis.position(idx) for idx in (m, n, u, v))
        assert tensor[a, b, c, d] == 0

    def test_cross_frequency_degenerate_reduction(self):
        basis = ModeBasis(1)
        single = coupling_tensor(basis, Z_R, CN2, W0, LAM).entries
        cross = dense_pair_coupling(basis, Z_R, CN2, W0, (OMEGA_C, OMEGA_C))
        assert np.max(np.abs(cross - single)) < 1e-12 * np.max(np.abs(single))

    def test_hermiticity_of_tensor(self):
        basis = ModeBasis(1)
        tensor = coupling_tensor(basis, 0.7 * Z_R, CN2, W0, LAM).entries
        conjugate = np.conj(np.transpose(tensor, (1, 0, 3, 2)))
        scale = np.max(np.abs(tensor))
        assert np.max(np.abs(tensor - conjugate)) < 1e-14 * scale

    def test_tensor_matches_elementwise(self):
        basis = ModeBasis(1)
        # the library tensor at a wavelength, the dense oracle at a frequency pair
        pair = (0.9 * OMEGA_C, 1.12 * OMEGA_C)
        for frequencies, tensor in (
            (LAM, coupling_tensor(basis, 0.4 * Z_R, CN2, W0, LAM).entries),
            (pair, dense_pair_coupling(basis, 0.4 * Z_R, CN2, W0, pair)),
        ):
            for (a, m), (b, n), (c, u), (d, v) in itertools.product(
                *[list(enumerate(basis.indices))] * 4
            ):
                direct = coupling_element(m, n, u, v, 0.4 * Z_R, CN2, W0, frequencies)
                assert abs(tensor[a, b, c, d] - direct) < 1e-18 + 1e-12 * abs(direct)

    def test_selection_mask_structure(self):
        basis = ModeBasis(2)
        mask = selection_mask(basis)
        tensor = coupling_tensor(basis, Z_R, CN2, W0, LAM).entries
        reordered = np.transpose(tensor, (0, 2, 1, 3))  # [m, u, n, v]
        assert np.all(reordered[~mask] == 0)

    @pytest.mark.parametrize("cutoff", [0, 2, 3])
    def test_sector_blocks_match_dense_sum(self, cutoff):
        # every Delta-l sector block at t = 0 is its slice of the whole-basis masked sum
        side = cutoff + 1
        dense = dense_pair_tensor(cutoff)
        scale = np.max(np.abs(dense))
        for delta in range(-2 * cutoff, 2 * cutoff + 1):
            count = 2 * cutoff + 1 - abs(delta)
            block = sector_coupling(cutoff, delta, 0.0)
            assert block.shape == (count * side * side,) * 2
            assert np.max(np.abs(block - dense_sector(dense, cutoff, delta))) < 1e-15 * scale
            # its phases are exact quarter turns: every entry is real or imaginary
            assert np.all((block.real == 0) | (block.imag == 0))

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3])
    def test_pair_coupling_matches_dressed_pair_tensor(self, cutoff):
        # two carriers, each stack with its own Gouy phase and area
        # rescaling (the dense oracle's dressed stacks): the batched real
        # block between its diagonal phases is the sector-delta slice of the
        # dense two-frequency sum for delta = 0, 1 and 2
        ratio, phase = carrier_tables(1.3 * Z_R)
        for delta in range(min(2 * cutoff, 2) + 1):
            real = pair_coupling_assembler(cutoff, len(CARRIER_PAIRS), delta)(ratio)
            diagonal = diagonal_phases(phase, cutoff, delta)
            assert real.dtype == np.float64
            for b, expected in enumerate(dense_pair_sectors(cutoff, delta, 1.3 * Z_R)):
                got = np.conj(diagonal[b])[:, None] * real[b] * diagonal[b][None, :]
                assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("cutoff", range(5))
    def test_even_half_is_the_folded_sector(self, cutoff):
        # on a sector 0 whose l-blocks l and -l are equal, the even half's
        # map is the whole-sector map's rows l <= 0, each column block l < 0
        # added to its mirror's
        side, half = cutoff + 1, (cutoff + 1) ** 3
        ratio = carrier_tables(1.3 * Z_R)[0]
        whole = pair_coupling_assembler(cutoff, len(CARRIER_PAIRS), 0)(ratio).copy()
        even = pair_coupling_assembler(cutoff, len(CARRIER_PAIRS), 0, even=True)(ratio)
        blocks = whole.reshape(len(CARRIER_PAIRS), 2 * side - 1, side * side, 2 * side - 1, side * side)
        folded = blocks[:, :side, :, :side].copy()
        folded[:, :, :, :cutoff] += blocks[:, :side, :, :cutoff:-1]
        assert even.shape == (len(CARRIER_PAIRS), half, half)
        assert np.max(np.abs(even - folded.reshape(even.shape))) <= 1e-15 * np.max(np.abs(whole))
        with pytest.raises(ValueError, match="reflection-even half"):
            pair_coupling_assembler(cutoff, 1, 1, even=True)

    def test_coupling_cutoff_limit(self):
        # the blocks would be accurate past 6, but coupling_tensor's dense
        # (S, S, S, S) array is about 1.1 GB at cutoff 6: nothing is assembled there
        assert MAX_COUPLING_CUTOFF == 6
        for cutoff in (MAX_COUPLING_CUTOFF + 1, MAX_ORACLE_INDEX):
            with pytest.raises(OracleIndexError, match="cutoff"):
                pair_coupling_assembler(cutoff, 1, 0)
            with pytest.raises(OracleIndexError, match="cutoff"):
                sector_coupling(cutoff, 1, 0.0)
            with pytest.raises(OracleIndexError):
                coupling_tensor(ModeBasis(cutoff), Z_R, CN2, W0, LAM)

    def test_dominant_transitions_are_azimuthal_neighbors(self):
        # transition strength falls steeply with the azimuthal jump: moving
        # l by 2 or more is more than an order of magnitude weaker than the
        # neighbor transitions and a couple percent of the largest entry
        basis = ModeBasis(2)
        tensor = coupling_tensor(basis, Z_R, CN2, W0, LAM).entries
        strongest = {}
        for (a, m), (c, u) in itertools.product(*[list(enumerate(basis.indices))] * 2):
            jump = abs(m.l - u.l)
            block = float(np.max(np.abs(tensor[a, :, c, :])))
            strongest[jump] = max(strongest.get(jump, 0.0), block)
        assert strongest[2] < strongest[1] / 10.0
        assert strongest[1] < strongest[0] / 3.0
        assert strongest[2] < 0.02 * strongest[0]
        assert strongest[3] < strongest[2]
        assert strongest[4] < strongest[3]

    def test_trace_identity_defect_shrinks_with_cutoff(self):
        # sum_n L(n, n, m, u) - delta L_T -> 0 only in the untruncated limit;
        # measure the truncated defect and require monotone improvement
        i00 = LGIndex(l=0, r=0)
        defects = []
        for cutoff in range(1, 6):
            basis = ModeBasis(cutoff)
            total = sum(
                coupling_element(n, n, i00, i00, Z_R, CN2, W0, LAM)
                for n in basis.indices
            )
            scale = abs(coupling_element(i00, i00, i00, i00, Z_R, CN2, W0, LAM))
            defects.append(abs(total) / scale)
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[0] > 0.05  # visibly incomplete at N = 1
        assert defects[-1] < 0.03  # and an order closer by N = 5


class TestExactCoupling:
    """Coupling entries against the exact rational sum of tests/exact_oracle.py."""

    @staticmethod
    def sector_entries(cutoff, delta, positions):
        """(position in sector_coupling's block, exact entry) for each (row, column)."""
        side, indices = cutoff + 1, ModeBasis(cutoff).indices
        lo_row, lo_col, count = sector_blocks(cutoff, delta)
        for i, j in positions:
            q, r_u, r_v = np.unravel_index(i, (count, side, side))
            p, r_m, r_n = np.unravel_index(j, (count, side, side))
            m, u = indices[(lo_row + p) * side + r_m], indices[(lo_row + q) * side + r_u]
            n, v = indices[(lo_col + p) * side + r_n], indices[(lo_col + q) * side + r_v]
            yield (i, j), exact_entry(m, u, n, v)

    @pytest.mark.parametrize("cutoff", range(3))
    def test_every_entry_up_to_cutoff_2(self, cutoff):
        for delta in range(-2 * cutoff, 2 * cutoff + 1):
            block = sector_coupling(cutoff, delta, 0.0)
            positions = itertools.product(range(len(block)), repeat=2)
            worst = max(abs(block[at] - exact) for at, exact in self.sector_entries(cutoff, delta, positions))
            assert worst <= 1e-13 * np.max(np.abs(block))

    def test_sector_coupling_at_cutoff_6(self):
        # the Gamma-weighted coefficient sum was off by 4.1e-7 of the largest entry here
        rng = np.random.default_rng(6)
        for delta in (0, 1, 5, 12):
            block = sector_coupling(6, delta, 0.0)
            positions = [(i, i) for i in range(0, len(block), 3 if delta else 1)]
            positions += [tuple(ij) for ij in rng.integers(0, len(block), (60, 2))]
            worst = max(abs(block[at] - exact) for at, exact in self.sector_entries(6, delta, positions))
            assert worst <= 1e-12 * np.max(np.abs(block))

    def test_coupling_tensor_at_cutoff_4(self):
        # entries[m, n, u, v] = rate T[m, u, n, v](0) e^{2i atan t (g_m - g_u - g_n + g_v)};
        # the Gamma-weighted coefficient sum was off by 5.5e-11 of the largest entry here
        z, basis = 3e3, ModeBasis(4)
        entries = coupling_tensor(basis, z, CN2, W0, LAM).entries
        rate, t = COUPLING_PREFACTOR * l_strength(z, CN2, LAM, W0), z / Z_R
        indices, rng = basis.indices, np.random.default_rng(4)
        picks = [(a, b, a, b) for a in range(0, basis.size, 2) for b in range(basis.size)]  # u = m, v = n
        for _ in range(400):
            a, b, c = rng.integers(0, basis.size, 3)
            l_v = indices[b].l - indices[a].l + indices[c].l
            r_v = int(rng.integers(0, basis.cutoff + 1))
            if abs(l_v) <= basis.cutoff:
                picks.append((a, b, c, basis.position(LGIndex(l=l_v, r=r_v))))
        worst = 0.0
        for a, b, c, d in picks:
            m, n, u, v = (indices[k] for k in (a, b, c, d))
            phase = np.exp(2j * math.atan(t) * (m.gouy_weight - u.gouy_weight - n.gouy_weight + v.gouy_weight))
            worst = max(worst, abs(entries[a, b, c, d] - rate * phase * exact_entry(m, u, n, v)))
        assert worst <= 1e-13 * np.max(np.abs(entries))


class TestNumericOracle:
    def test_angular_integral_vanishes_off_selection(self):
        m = LGIndex(l=1, r=0)
        n = LGIndex(l=0, r=0)
        u = LGIndex(l=0, r=0)
        v = LGIndex(l=0, r=1)
        value, _ = coupling_numeric_oracle(m, n, u, v, Z_R, CN2, W0, LAM, 1e-4 / W0)
        assert abs(value) < 1e-30

    def test_total_rate_matches_closed_form(self):
        i00 = LGIndex(l=0, r=0)
        kappa0 = 1e-4 / W0
        _, lt = coupling_numeric_oracle(i00, i00, i00, i00, 0.0, CN2, W0, LAM, kappa0)
        closed = big_l_t(LAM, LAM, CN2, kappa0)
        assert lt == pytest.approx(closed, rel=1e-3)

    def test_fundamental_rate_with_extrapolation(self):
        i00 = LGIndex(l=0, r=0)
        for t in (0.0, 1.0):
            z = t * Z_R
            oracle = coupling_oracle_extrapolated(i00, i00, i00, i00, z, CN2, W0, LAM, 1e-4 / W0)
            expected = -DECAY_CONSTANT * l_strength(z, CN2, LAM, W0)
            assert oracle.real == pytest.approx(expected, rel=5e-3)
            assert oracle.real / l_strength(z, CN2, LAM, W0) == pytest.approx(-54.1, abs=0.3)

    def test_cross_frequency_oracle_agreement(self):
        # two-frequency defining integral against the closed-form coupling
        # behind the full-IPE kernel (its dense oracle), with the outer-scale
        # extrapolation, on representative allowed tuples
        pair = (0.9 * OMEGA_C, 1.12 * OMEGA_C)
        basis = ModeBasis(2)
        tensor = dense_pair_coupling(basis, Z_R, CN2, W0, pair)
        tuples = [
            ((0, 0), (0, 0), (0, 0), (0, 0)),
            ((0, 1), (0, 0), (0, 0), (0, 0)),
            ((1, 0), (1, 1), (0, 0), (0, 1)),
            ((-1, 1), (0, 2), (-2, 0), (-1, 1)),
        ]
        for tl in tuples:
            m, n, u, v = [LGIndex(l=a, r=b) for a, b in tl]
            closed = tensor[tuple(basis.position(idx) for idx in (m, n, u, v))]
            oracle = coupling_oracle_extrapolated(
                m, n, u, v, Z_R, CN2, W0, pair, 1e-4 / W0
            )
            assert abs(closed - oracle) <= 5e-3 * max(abs(closed), abs(oracle))

    def test_cross_frequency_total_rate(self):
        omega_c = 2.0 * math.pi * 299792458.0 / LAM
        pair = (0.9 * omega_c, 1.12 * omega_c)
        lam1 = 2.0 * math.pi * 299792458.0 / pair[0]
        lam2 = 2.0 * math.pi * 299792458.0 / pair[1]
        kappa0 = 1e-4 / W0
        i00 = LGIndex(l=0, r=0)
        _, lt = coupling_numeric_oracle(i00, i00, i00, i00, Z_R, CN2, W0, pair, kappa0)
        closed = big_l_t(lam1, lam2, CN2, kappa0)
        assert lt == pytest.approx(closed, rel=1e-3)

    def test_positive_outer_scale_required(self):
        i00 = LGIndex(l=0, r=0)
        with pytest.raises(ValueError):
            coupling_numeric_oracle(i00, i00, i00, i00, 0.0, CN2, W0, LAM, 0.0)


class TestGamma:
    # the library calls the platform's math.gamma, also at negative arguments
    # (reflection): Gamma(-5/6) is the k = 0 term of every coupling block,
    # and the weights of the radial node rule sum to Gamma(1/6)
    def test_half(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_negative_five_sixths_by_reflection(self):
        # reflection formula with Gamma(11/6) from an independent integral;
        # the fundamental's entry of every block is Gamma(-5/6) alone
        g_11_6 = quad(lambda t: t ** (11.0 / 6.0 - 1.0) * math.exp(-t), 0, 60)[0]
        expected = math.pi / (math.sin(-5.0 * math.pi / 6.0) * g_11_6)
        for cutoff in range(3):
            side = cutoff + 1
            fundamental = cutoff * side * side  # (l = 0 block, r_m = r_n = 0) of sector 0
            entry = sector_coupling(cutoff, 0, 0.0)[fundamental, fundamental]
            assert entry == math.gamma(-5.0 / 6.0)
            assert entry.real == pytest.approx(expected, rel=1e-9)
            assert entry.real == pytest.approx(-6.6795, abs=5e-4)

    def test_one_sixth_by_integral(self):
        # the weights of every rule sum to Gamma(1/6) (M[1, 1] = Gamma(1/6) / 2)
        expected = quad(lambda t: t ** (1.0 / 6.0 - 1.0) * math.exp(-t), 0, 60)[0]
        for count in range(1, 3 * MAX_COUPLING_CUTOFF + 1):
            assert radial_rule(count)[1].sum() == pytest.approx(expected, rel=1e-9)
            assert radial_rule(count)[1].sum() == pytest.approx(5.5663, abs=5e-4)

    @pytest.mark.parametrize("x", [0.3, 1.7, -0.4, -3.3, 7.5, 12.0])
    def test_functional_equation(self, x):
        assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-10)


class TestGammaWeights:
    def test_matrix_values(self):
        # the rule reproduces each Gamma weight of the coefficient double sum:
        # M[j1, j2] = 2^-k Gamma(k - 5/6) = 2^-k sum_i w_i y_i^(k-1) for
        # k = (j1 + j2) / 2 from 1 to 2 count, and M[0, 0] = Gamma(-5/6) is
        # the term the blocks split off
        for count in range(1, 3 * MAX_COUPLING_CUTOFF + 1):
            nodes, weights = radial_rule(count)
            assert np.all(np.diff(nodes) > 0) and nodes[0] > 0 and np.all(weights > 0)
            k = np.arange(1, 2 * count + 1)
            moments = 2.0**-k * (weights * nodes ** (k[:, None] - 1)).sum(axis=1)
            expected = np.diag(gamma_weights(2 * count + 1))[1:]
            assert np.max(np.abs(moments / expected - 1.0)) <= 1e-12
        assert gamma_weights(3)[0, 0] == math.gamma(-5.0 / 6.0)

    def test_coupling_build_leaves_numpy_ma_out(self):
        # np.unique imports numpy.ma on its first call; the weights read a
        # table of the Gamma values by index instead, so a coupling build
        # adds no numpy.ma import of its own
        code = (
            "import sys\n"
            "from turbulink.lgmodes import ModeBasis, coupling_tensor\n"
            "before = 'numpy.ma' in sys.modules\n"
            f"coupling_tensor(ModeBasis(2), {Z_R!r}, {CN2!r}, {W0!r}, {LAM!r})\n"
            "sys.exit(not before and 'numpy.ma' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_stack_is_a_fresh_array(self):
        # the cached node rule and sector blocks are read-only; each
        # dressed block is a new array
        for cached in (*radial_rule(6), *_real_sector(2, 1)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 7.0
        first = sector_coupling(2, 1, 0.4)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(sector_coupling(2, 1, 0.4), expected)

    def test_stack_memory_bounded_over_distances(self):
        # one real block per cutoff and sector is kept, not one per
        # distance: a sweep of fresh distances must not grow memory
        basis = ModeBasis(2)
        coupling_tensor(basis, 0.0, CN2, W0, LAM)
        tracemalloc.start()
        try:
            for t in np.linspace(0.01, 3.0, 50):
                coupling_tensor(basis, float(t) * Z_R, CN2, W0, LAM)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000
