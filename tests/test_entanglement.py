import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from turbulink.entanglement import (
    RobustnessRow,
    TwoPhotonDensity,
    TwoPhotonState,
    _pair_density,
    _partial_transpose_blocks,
    channel_tensor,
    fidelity_to_input,
    log_negativity,
    propagate_pair,
    robustness_scan,
)
from turbulink.temporal import ChannelKernel, channel_kernel
from turbulink.turbulence import TurbulenceProfile


def single_photon_block(kernel, n, count):
    """Unnormalized one-photon output over modes 0..count-1 for input mode n,
    element by element: sum_ij f_u(i) f_n(i) P_ij f_n(j) f_v(j)."""
    psi = kernel.mode_vectors(count)
    block = np.empty((count, count))
    for u in range(count):
        for v in range(count):
            block[u, v] = np.sum(np.outer(psi[u] * psi[n], psi[v] * psi[n]) * kernel.matrix)
    return block


def qudit_bell(modes, dim):
    """Maximally entangled state over the given mode list."""
    psi = np.zeros((dim, dim), dtype=complex)
    for m in modes:
        psi[m, m] = 1.0 / math.sqrt(len(modes))
    return TwoPhotonState(coefficients=psi)


def random_state(dim, seed):
    """Normalized complex state with every psi[m, n] nonzero."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return TwoPhotonState(coefficients=psi / np.linalg.norm(psi))


def einsum_pair_density(state, kernel):
    """Oracle: the pair map as one unoptimized three-operand einsum (dim^7)."""
    dim = state.dim
    psi = state.coefficients
    tensor = channel_tensor(kernel, dim)
    # first[u, v, m', n] = sum_m C[u, v, m, m'] psi[m, n]
    first = np.einsum("uvmp,mn->uvpn", tensor, psi)
    out = np.einsum("uvpn,UVnq,pq->uUvV", first, tensor, np.conj(psi))
    matrix = out.reshape(dim * dim, dim * dim)
    matrix = 0.5 * (matrix + matrix.conj().T)
    mass = float(np.trace(matrix).real)
    return matrix / mass, mass


def bell_density(dim=2):
    psi = TwoPhotonState.mode_pair(0, 1, dim)
    vec = psi.coefficients.reshape(-1)
    return TwoPhotonDensity(dim=dim, matrix=np.outer(vec, vec.conj()))


class TestStates:
    def test_mode_pair_norm(self):
        state = TwoPhotonState.mode_pair(0, 3, 8)
        assert np.sum(np.abs(state.coefficients) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_pair_is_product(self):
        state = TwoPhotonState.mode_pair(2, 2, 6)
        assert state.coefficients[2, 2] == 1.0
        assert np.sum(np.abs(state.coefficients) ** 2) == pytest.approx(1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TwoPhotonState(coefficients=np.eye(3, dtype=complex))

    @pytest.mark.parametrize("entry", [math.nan, complex(0.0, math.nan)])
    def test_rejects_nan(self, entry):
        with pytest.raises(ValueError, match="state norm"):
            TwoPhotonState(coefficients=[[entry, 0.0], [0.0, 0.0]])

    def test_density_rejects_nan(self):
        matrix = np.eye(4) / 4.0
        matrix[1, 2] = math.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            TwoPhotonDensity(dim=2, matrix=matrix)

    def test_density_rejects_a_list(self):
        with pytest.raises(ValueError, match="matrix"):
            TwoPhotonDensity(dim=1, matrix=[[1.0]])

    def test_mode_outside_dimension(self):
        with pytest.raises(ValueError):
            TwoPhotonState.mode_pair(0, 9, 4)

    @pytest.mark.parametrize("m, n", [(-1, 3), (3, -1), (-8, -8)])
    def test_negative_mode_index(self, m, n):
        # numpy would wrap -1 round to mode dim - 1
        with pytest.raises(ValueError, match="mode index outside the basis dimension"):
            TwoPhotonState.mode_pair(m, n, 8)

    @pytest.mark.parametrize("m, n, name", [(0.5, 1, "m"), (1, 2.0, "n"), (True, 2, "m"), (0, np.float64(3), "n")])
    def test_non_int_mode_index(self, m, n, name):
        # (0.5, 1) used to end in numpy's IndexError
        value = m if name == "m" else n
        with pytest.raises(ValueError, match=f"^{name} must be an int, not {re.escape(repr(value))}$"):
            TwoPhotonState.mode_pair(m, n, 4)

    def test_scan_refuses_negative_mode(self, paper_spec, kernel_zero):
        with pytest.raises(ValueError, match="mode index outside the basis dimension"):
            robustness_scan(kernel_zero, paper_spec, 0, range(-1, 3), dim=4)

    def test_mode_pair_is_real(self):
        assert TwoPhotonState.mode_pair(0, 3, 8).coefficients.dtype == np.float64
        assert TwoPhotonState.mode_pair(2, 2, 6).coefficients.dtype == np.float64

    @pytest.mark.parametrize(
        "entries, dtype",
        [
            ([[1, 0], [0, 0]], np.float64),
            ([[0.6, 0.0], [0.0, 0.8]], np.float64),
            ([[0.6j, 0], [0, 0.8]], np.complex128),
        ],
    )
    def test_array_like_stored_as_array(self, entries, dtype):
        state = TwoPhotonState(coefficients=entries)
        assert isinstance(state.coefficients, np.ndarray)
        assert state.coefficients.dtype == dtype
        assert state.dim == 2

    def test_list_state_propagates_like_array(self, paper_spec, kernel_1e16):
        array = TwoPhotonState.mode_pair(1, 4, 6)
        listed = TwoPhotonState(coefficients=array.coefficients.tolist())
        rho_list, mass_list = propagate_pair(listed, kernel_1e16, paper_spec)
        rho_array, mass_array = propagate_pair(array, kernel_1e16, paper_spec)
        np.testing.assert_array_equal(rho_list.matrix, rho_array.matrix)
        assert mass_list == mass_array


class TestLogNegativity:
    def test_bell_state(self):
        assert log_negativity(bell_density()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_ppt(self):
        psi = TwoPhotonState.mode_pair(1, 1, 3)
        vec = psi.coefficients.reshape(-1)
        rho = TwoPhotonDensity(dim=3, matrix=np.outer(vec, vec.conj()))
        assert log_negativity(rho) < 1e-9

    def test_isotropic_mixture_against_eigen_oracle(self):
        # 0.5 Bell + 0.5 I/4: brute-force partial transpose of the 4x4 matrix
        bell = bell_density().matrix
        mixture = 0.5 * bell + 0.5 * np.eye(4) / 4.0
        four = mixture.reshape(2, 2, 2, 2)
        transposed = four.transpose(0, 3, 2, 1).reshape(4, 4)
        eigenvalues = np.linalg.eigvalsh(transposed)
        negativity = -eigenvalues[eigenvalues < 0].sum()
        expected = math.log2(2.0 * negativity + 1.0)
        rho = TwoPhotonDensity(dim=2, matrix=mixture)
        assert log_negativity(rho) == pytest.approx(expected, abs=1e-12)
        # the single negative PT eigenvalue is 0.5*(-1/2) + 0.5*(1/4) = -1/8
        assert negativity == pytest.approx(0.125, abs=1e-12)
        assert expected == pytest.approx(math.log2(1.25), abs=1e-12)

    def test_classical_mixture_ppt(self):
        diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho = TwoPhotonDensity(dim=2, matrix=diag)
        assert log_negativity(rho) < 1e-9


class TestChannelTensor:
    def test_exchange_symmetry(self, kernel_1e16):
        tensor = channel_tensor(kernel_1e16, 6)
        swapped = np.conj(np.transpose(tensor, (1, 0, 3, 2)))
        assert np.max(np.abs(tensor - swapped)) < 1e-12

    def test_matches_single_photon_channel(self, kernel_1e16):
        tensor = channel_tensor(kernel_1e16, 5)
        for n in (0, 3):
            block = single_photon_block(kernel_1e16, n, 5)
            trace = np.trace(tensor[:, :, n, n]).real
            assert np.max(np.abs(tensor[:, :, n, n] / trace - block / np.trace(block))) < 1e-12


    @pytest.mark.parametrize("dim", [0, -1, 2.0, True])
    def test_dim_must_be_a_positive_int(self, kernel_1e16, dim):
        # dim 0 used to fail inside a reshape
        with pytest.raises(ValueError, match="^dim must be"):
            channel_tensor(kernel_1e16, dim)


class TestPropagatePair:
    def test_zero_turbulence_exact(self, paper_spec, kernel_zero):
        state = TwoPhotonState.mode_pair(0, 3, 12)
        rho, mass = propagate_pair(state, kernel_zero, paper_spec)
        vec = state.coefficients.reshape(-1)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho.matrix - np.outer(vec, vec.conj()))) < 1e-10
        assert log_negativity(rho) == pytest.approx(1.0, abs=1e-9)
        assert fidelity_to_input(rho, state) == pytest.approx(1.0, abs=1e-10)

    def test_separable_input_factorizes(self, paper_spec, kernel_1e16):
        state = TwoPhotonState.mode_pair(0, 0, 8)
        rho, _ = propagate_pair(state, kernel_1e16, paper_spec)
        single = channel_tensor(kernel_1e16, 8)[:, :, 0, 0]
        normalized = single / np.trace(single).real
        expected = np.kron(normalized, normalized)
        assert np.max(np.abs(rho.matrix - expected)) < 1e-10

    def test_dimension_guard(self, paper_spec, kernel_1e16):
        with pytest.raises(ValueError):
            propagate_pair(TwoPhotonState.mode_pair(0, 1, 15), kernel_1e16, paper_spec)

    @pytest.mark.parametrize("dim", [2, 6, 9, 12, 14])
    @pytest.mark.parametrize("kind", ["mode_pair", "qudit_bell", "random"])
    def test_matches_einsum_oracle(self, paper_spec, kernel_1e15, dim, kind):
        state = {
            "mode_pair": TwoPhotonState.mode_pair(0, dim - 1, dim),
            "qudit_bell": qudit_bell(range(0, dim, 2), dim),
            "random": random_state(dim, seed=dim),
        }[kind]
        rho, mass = propagate_pair(state, kernel_1e15, paper_spec)
        expected, expected_mass = einsum_pair_density(state, kernel_1e15)
        # real states stay real, complex ones stay complex
        assert rho.matrix.dtype == state.coefficients.dtype
        np.testing.assert_allclose(rho.matrix, expected, rtol=0.0, atol=1e-12)
        assert mass == pytest.approx(expected_mass, rel=1e-12)

    def test_real_pair_density(self, kernel_1e16):
        state = TwoPhotonState.mode_pair(0, 5, 10)
        assert kernel_1e16.matrix.dtype == np.float64
        rho, _ = _pair_density(state.coefficients, channel_tensor(kernel_1e16, 10))
        assert rho.matrix.dtype == np.float64

    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_zero_turbulence_identity_property(self, paper_spec, kernel_zero, dim, seed):
        state = random_state(dim, seed)
        rho, mass = propagate_pair(state, kernel_zero, paper_spec)
        vec = state.coefficients.reshape(-1)
        np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), rtol=0.0, atol=1e-10)
        assert fidelity_to_input(rho, state) == pytest.approx(1.0, abs=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-10)

    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_hermitian_with_bounded_mass_property(self, paper_spec, kernel_1e16, dim, seed):
        rho, mass = propagate_pair(random_state(dim, seed), kernel_1e16, paper_spec)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
        assert 0.0 < mass <= 1.0

    def test_fidelity_of_orthogonal_state(self):
        rho = bell_density(4)
        other = TwoPhotonState.mode_pair(2, 3, 4)
        assert fidelity_to_input(rho, other) == pytest.approx(0.0, abs=1e-12)


# (kernel fixture, dim, fixed mode, n_range): the CLI's n < min(11, dim - 1)
# with the first, middle and last fixed mode, and one unordered n_range
# with a repeated entry
SCAN_CASES = [
    pytest.param(kernel, dim, fixed, range(min(11, dim - 1)), id=f"{kernel}-dim{dim}-m{fixed}")
    for kernel in ("kernel_zero", "kernel_1e16", "kernel_1e15")
    for dim in (2, 3, 6, 9, 12, 14)
    for fixed in sorted({0, dim // 2, dim - 1})
] + [pytest.param("kernel_1e15", 9, 4, (7, 0, 4, 8, 4, 1), id="kernel_1e15-dim9-m4-unordered")]


@pytest.fixture(scope="module")
def scan_1e16(paper_spec, kernel_1e16):
    return robustness_scan(kernel_1e16, paper_spec, 0, range(11), dim=12)


@pytest.fixture(scope="module")
def scan_1e15(paper_spec, kernel_1e15):
    return robustness_scan(kernel_1e15, paper_spec, 0, range(11), dim=12)


class TestRobustnessScan:

    def test_degenerate_row_flagged(self, scan_1e16):
        row = scan_1e16[0]
        assert row.degenerate
        assert row.en_initial == 0.0
        assert row.en_final < 0.01

    def test_distant_modes_keep_entanglement(self, scan_1e16):
        for row in scan_1e16:
            if not row.degenerate and abs(row.n - 0) > 1:
                assert abs(row.en_final - 1.0) < 0.05

    def test_neighbor_drop_dominates(self, scan_1e16):
        drops = {row.n: row.en_initial - row.en_final for row in scan_1e16 if not row.degenerate}
        neighbor = drops.pop(1)
        assert all(neighbor > other for other in drops.values())

    def test_neighbor_drop_dominates_strong(self, scan_1e15):
        drops = {row.n: row.en_initial - row.en_final for row in scan_1e15 if not row.degenerate}
        neighbor = drops.pop(1)
        assert neighbor > 0.05  # clearly visible dip at |m-n| = 1
        assert all(neighbor > other for other in drops.values())

    def test_stronger_turbulence_never_helps(self, scan_1e16, scan_1e15):
        # up to the few-1e-3 non-positivity artifact of the kernel
        for weak, strong in zip(scan_1e16, scan_1e15):
            assert strong.en_final <= weak.en_final + 5e-3

    @pytest.mark.parametrize("kernel_name, dim, fixed_mode, n_range", SCAN_CASES)
    def test_rows_match_propagate_pair(self, request, paper_spec, kernel_name, dim, fixed_mode, n_range):
        # oracle: each row's state through the general pair path
        kernel = request.getfixturevalue(kernel_name)
        rows = robustness_scan(kernel, paper_spec, fixed_mode, n_range, dim=dim)
        assert [row.n for row in rows] == list(n_range)
        for row in rows:
            state = TwoPhotonState.mode_pair(fixed_mode, row.n, dim)
            rho, mass = propagate_pair(state, kernel, paper_spec)
            assert row.degenerate == (row.n == fixed_mode)
            assert row.en_initial == (0.0 if row.degenerate else 1.0)
            assert row.en_final == pytest.approx(log_negativity(rho), abs=1e-13)
            assert row.fidelity == pytest.approx(fidelity_to_input(rho, state), abs=1e-13)
            assert row.transmitted_mass == pytest.approx(mass, rel=1e-13)

    @pytest.mark.parametrize("dim, fixed_mode", [(2, 1), (6, 0), (9, 4), (12, 11)])
    def test_partial_transpose_splits_on_the_swap_blocks(self, kernel_1e15, dim, fixed_mode):
        # the lemma the scan rests on: through a real kernel each row's
        # partial transpose commutes with the photon swap, so its spectrum is
        # that of the scan's symmetric and antisymmetric blocks together
        tensor = channel_tensor(kernel_1e15, dim)
        swap = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)  # |u U> -> |U u>
        for n in range(dim):
            state = TwoPhotonState.mode_pair(fixed_mode, n, dim)
            rho, mass = _pair_density(state.coefficients, tensor)
            four = (mass * rho.matrix).reshape(dim, dim, dim, dim)
            transposed = four.transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
            scale = np.abs(transposed).max()
            assert np.abs(transposed[swap][:, swap] - transposed).max() <= 1e-14 * scale
            # psi's weights on |f_m f_m> and |f_n f_n>, the latter once only
            modes = (fixed_mode, n)
            weights = state.coefficients[modes, modes] * [1.0, n != fixed_mode]
            blocks = np.array([[tensor[:, :, a, b] for b in modes] for a in modes])
            stacks = _partial_transpose_blocks(blocks[None], np.outer(weights, weights)[None])
            assert [stack.shape[1:] for stack in stacks] == [
                (dim * (dim + 1) // 2,) * 2, (dim * (dim - 1) // 2,) * 2
            ]
            spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(stack[0]) for stack in stacks]))
            expected = np.linalg.eigvalsh(transposed)
            np.testing.assert_allclose(spectrum, expected, rtol=0.0, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("dim, fixed_mode", [(3, 2), (6, 0), (12, 11)])
    def test_complex_hermitian_kernel_rows_match_propagate_pair(self, paper_spec, kernel_1e16, dim, fixed_mode):
        # a frequency-dependent phase makes the kernel complex Hermitian;
        # then S X S = conj(X), the swap blocks couple (solving them apart
        # is off by 0.017-0.14 in E_N here), and the scan solves the whole
        # partial transpose
        phase = np.exp(1j * np.linspace(-0.8, 0.8, kernel_1e16.order))
        kernel = ChannelKernel(
            omegas=kernel_1e16.omegas, matrix=kernel_1e16.matrix * np.outer(phase, phase.conj())
        )
        for row in robustness_scan(kernel, paper_spec, fixed_mode, range(dim), dim=dim):
            state = TwoPhotonState.mode_pair(fixed_mode, row.n, dim)
            rho, mass = propagate_pair(state, kernel, paper_spec)
            assert rho.matrix.dtype == np.complex128
            assert row.en_final == pytest.approx(log_negativity(rho), abs=1e-13)
            assert row.fidelity == pytest.approx(fidelity_to_input(rho, state), abs=1e-13)
            assert row.transmitted_mass == pytest.approx(mass, rel=1e-13)

    @pytest.mark.parametrize("scan", ["scan_1e16", "scan_1e15"])
    def test_rows_match_complex_arithmetic(self, request, paper_spec, scan):
        # oracle: the same states cast to complex128, so every step runs the
        # complex GEMMs and the Hermitian eigen-solve
        kernel = request.getfixturevalue({"scan_1e16": "kernel_1e16", "scan_1e15": "kernel_1e15"}[scan])
        tensor = channel_tensor(kernel, 12)
        for row in request.getfixturevalue(scan):
            psi = TwoPhotonState.mode_pair(0, row.n, 12).coefficients.astype(np.complex128)
            rho, mass = _pair_density(psi, tensor)
            assert rho.matrix.dtype == np.complex128
            assert row.en_final == pytest.approx(log_negativity(rho), abs=1e-13)
            assert row.fidelity == pytest.approx(fidelity_to_input(rho, TwoPhotonState(psi)), abs=1e-13)
            assert row.transmitted_mass == pytest.approx(mass, rel=1e-13)

    def test_outputs_nearly_positive(self, paper_spec, kernel_1e16):
        for n in (1, 5, 10):
            state = TwoPhotonState.mode_pair(0, n, 12)
            rho, _ = propagate_pair(state, kernel_1e16, paper_spec)
            assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-2

    def test_even_mode_qudit_more_robust(self, paper_spec, kernel_1e16):
        even = qudit_bell([0, 2, 4], 12)
        consecutive = qudit_bell([0, 1, 2], 12)
        rho_even, _ = propagate_pair(even, kernel_1e16, paper_spec)
        rho_cons, _ = propagate_pair(consecutive, kernel_1e16, paper_spec)
        initial = math.log2(3.0)
        loss_even = initial - log_negativity(rho_even)
        loss_cons = initial - log_negativity(rho_cons)
        assert loss_even < loss_cons

    def test_fully_absorbed_pair_raises(self, paper_spec, paper_geometry):
        # every kernel entry underflows to 0, so the pair density is undefined
        kernel = channel_kernel(
            paper_spec, TurbulenceProfile.from_constant(1e-11), paper_geometry, grid_order=8
        )
        assert not kernel.matrix.any()
        with pytest.raises(RuntimeError, match="pair fully absorbed"):
            robustness_scan(kernel, paper_spec, 0, range(3), dim=4)

    def test_dimension_guard(self, paper_spec, kernel_1e16):
        # the g=64 grid resolves 32 modes: the pair limit is what refuses,
        # in `channel_tensor`, which both pair paths call
        calls = (
            lambda: robustness_scan(kernel_1e16, paper_spec, 0, range(3), dim=15),
            lambda: propagate_pair(TwoPhotonState.mode_pair(0, 1, 15), kernel_1e16, paper_spec),
            lambda: channel_tensor(kernel_1e16, 15),
        )
        for call in calls:
            with pytest.raises(ValueError, match="pair propagation limited to 14 modes"):
                call()

    @pytest.mark.parametrize("fixed_mode, n_range", [(0, [1, 4]), (4, [0]), (-1, [2]), (1, [2, -3])])
    def test_mode_outside_dimension(self, paper_spec, kernel_1e16, fixed_mode, n_range):
        with pytest.raises(ValueError, match="mode index outside the basis dimension"):
            robustness_scan(kernel_1e16, paper_spec, fixed_mode, n_range, dim=4)

    @pytest.mark.parametrize(
        "fixed_mode, n_range, name",
        [(0, [0.5, 1, 2.9], "n"), (1.9, [0, 2], "fixed_mode"), (False, [1], "fixed_mode"), (0, [1, True], "n")],
    )
    def test_non_int_mode_refused(self, paper_spec, kernel_1e16, fixed_mode, n_range, name):
        # [0.5, 1, 2.9] used to compute the rows n = 0 and 2 labelled 0.5 and
        # 2.9, and fixed_mode = 1.9 to run as 1
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            robustness_scan(kernel_1e16, paper_spec, fixed_mode, n_range, dim=4)

    def test_non_finite_kernel_refused_alike_by_both_paths(self, paper_spec, paper_geometry):
        # propagate_pair used to report this kernel as a fully absorbed pair
        # (RuntimeError, transmitted mass nan); the scan refused it with a
        # ValueError.  Both now get the channel tensor's refusal.
        kernel = channel_kernel(paper_spec, TurbulenceProfile.from_constant(1e-16), paper_geometry, grid_order=16)
        matrix = kernel.matrix.copy()
        matrix[3, 5] = matrix[5, 3] = math.nan
        kernel = ChannelKernel(omegas=kernel.omegas, matrix=matrix)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^channel kernel is not finite"):
                propagate_pair(TwoPhotonState.mode_pair(0, 1, 4), kernel, paper_spec)
            with pytest.raises(ValueError, match="^channel kernel is not finite"):
                robustness_scan(kernel, paper_spec, 0, range(3), dim=4)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_kernel_refused(self, paper_spec, kernel_1e16, entry):
        matrix = kernel_1e16.matrix.copy()
        matrix[3, 5] = matrix[5, 3] = entry
        kernel = ChannelKernel(omegas=kernel_1e16.omegas, matrix=matrix)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="channel kernel is not finite"):
            robustness_scan(kernel, paper_spec, 0, range(3), dim=4)
