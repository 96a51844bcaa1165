import math
import re
from dataclasses import replace

import numpy as np
import pytest
from dense_oracle import dense_pair_coupling
from full_ipe_oracle import whole_sector_fundamental
from hypothesis import given
from hypothesis import strategies as st
from ipe_oracle import lawson_loop

from turbulink import temporal
from turbulink.config import RANGES
from turbulink.entanglement import channel_tensor
from turbulink.ipe import (
    DensityMatrix,
    SolverConfig,
    analytic_decay,
    lowest_mode_probability,
    propagate,
)
from turbulink.lgmodes import LGIndex, ModeBasis
from turbulink.schmidt import BiphotonSpec, discrete_modes, frequency_grid, gauss_hermite_rule, hermite_functions
from turbulink.temporal import (
    CostGuardError,
    KernelFidelity,
    ResolutionError,
    channel_kernel,
    mode_trace,
    transmission_matrix,
)
from turbulink.turbulence import LinkGeometry, TurbulenceProfile, cn2_at, l_cross

C = 299792458.0
GRID_ORDERS = (16, 32, 64)
# the full-IPE kernel's steps in the oracle comparisons: it errs there by at
# most 1.6e-13 of the largest entry, the extrapolated RK4 oracles by 1.4e-13
KERNEL_STEPS = 512

PAPER_MATRIX = np.array(
    [
        [0.9838, 0.0161, 0.0000, 0.0000],
        [0.0152, 0.9538, 0.0307, 0.0003],
        [0.0001, 0.0289, 0.9266, 0.0438],
        [0.0000, 0.0003, 0.0414, 0.9018],
    ]
)


class TestKernel:
    def test_zero_turbulence_all_ones(self, kernel_zero):
        assert np.all(kernel_zero.matrix == 1.0)

    def test_entries_in_unit_interval(self, kernel_1e15):
        assert np.all(kernel_1e15.matrix > 0.0)
        assert np.all(kernel_1e15.matrix <= 1.0)

    def test_symmetry(self, kernel_1e15):
        assert np.array_equal(kernel_1e15.matrix, kernel_1e15.matrix.T)

    def test_diagonal_equals_single_frequency_decay(self, paper_spec, paper_geometry, kernel_1e15):
        profile = TurbulenceProfile.from_constant(1e-15)
        for i in range(64):
            omega = kernel_1e15.omegas[i]
            geom = LinkGeometry(
                path_length=paper_geometry.path_length,
                transmitter_height=paper_geometry.transmitter_height,
                receiver_height=paper_geometry.receiver_height,
                waist=paper_geometry.waist,
                wavelength=2.0 * math.pi * C / omega,
            )
            assert kernel_1e15.matrix[i, i] == pytest.approx(
                analytic_decay(profile, geom), rel=1e-7
            )

    def test_extinction_scales_all_entries(self, paper_spec, paper_geometry):
        profile = TurbulenceProfile.from_constant(0.0)
        kernel = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=8, extinction_per_km=0.2
        )
        assert np.all(kernel.matrix == pytest.approx(math.exp(-0.2 * 30.0), rel=1e-12))

    @pytest.mark.parametrize("extinction", [-1.0, math.nan, math.inf])
    def test_extinction_refused(self, paper_spec, paper_geometry, extinction):
        # -1/km used to give kernel entries up to 5.6e12
        profile = TurbulenceProfile.from_constant(1e-16)
        with pytest.raises(ValueError, match="extinction_per_km"):
            channel_kernel(paper_spec, profile, paper_geometry, grid_order=8, extinction_per_km=extinction)

    @pytest.mark.parametrize("fidelity", ["analytic", "full_ipe"])
    def test_fidelity_string_refused(self, paper_spec, paper_geometry, fidelity):
        # a string failed both `is` tests and ran the full-IPE path without
        # its step and cost checks: "analytic" gave a full-IPE kernel
        profile = TurbulenceProfile.from_constant(1e-16)
        with pytest.raises(ValueError, match=f"fidelity must be a KernelFidelity member, not '{fidelity}'"):
            channel_kernel(paper_spec, profile, paper_geometry, grid_order=8, fidelity=fidelity)

    @pytest.mark.parametrize("grid_order", [8.0, np.float64(8.0), True, -8, "8"])
    def test_grid_order_must_be_an_int(self, paper_spec, paper_geometry, grid_order):
        # refused before the grid cache is read, where 8.0 == 8 would find
        # the cached g = 8 grid
        profile = TurbulenceProfile.from_constant(1e-16)
        channel_kernel(paper_spec, profile, paper_geometry, grid_order=8)
        message = f"grid_order must be a non-negative int, not {grid_order!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            channel_kernel(paper_spec, profile, paper_geometry, grid_order=grid_order)
        assert channel_kernel(paper_spec, profile, paper_geometry, grid_order=np.int64(8)).order == 8

    @pytest.mark.parametrize("cn2", [0.0, 1e-16])
    def test_grid_reaching_below_zero_refused(self, paper_geometry, cn2):
        # the grid object builds its pair constants up front, so a grid with
        # a frequency <= 0 is refused without turbulence too (the validator
        # refuses such a grid for every subcommand)
        spec = BiphotonSpec(sigma_a=2e15, sigma_b=2e15, omega_p=2e15)
        assert frequency_grid(spec, 8)[0] < 0
        with pytest.raises(ValueError, match="frequencies must be positive"):
            channel_kernel(spec, TurbulenceProfile.from_constant(cn2), paper_geometry, grid_order=8)

    def test_grid_guards(self, paper_spec, paper_geometry):
        profile = TurbulenceProfile.from_constant(1e-16)
        with pytest.raises(CostGuardError):
            channel_kernel(paper_spec, profile, paper_geometry, grid_order=65)
        with pytest.raises(CostGuardError):
            channel_kernel(
                paper_spec, profile, paper_geometry, grid_order=16,
                fidelity=KernelFidelity.FULL_IPE,
            )
        with pytest.raises(CostGuardError):
            channel_kernel(
                paper_spec, profile, paper_geometry, grid_order=4,
                fidelity=KernelFidelity.FULL_IPE, cutoff=6,
            )


@pytest.fixture(scope="module")
def kernels_8(paper_spec, paper_geometry):
    profile = TurbulenceProfile.from_constant(1e-16)
    analytic = channel_kernel(paper_spec, profile, paper_geometry, grid_order=8)
    full = channel_kernel(
        paper_spec, profile, paper_geometry, grid_order=8,
        fidelity=KernelFidelity.FULL_IPE, cutoff=2,
    )
    return analytic, full


class TestFullPropagationKernel:

    def test_repopulation_magnitude(self, kernels_8):
        # the truncated-basis kernel exceeds pure decay by the repopulation
        # of the fundamental: second order in the decay exponent, ~15-19%
        # at this channel, far from negligible but bounded
        analytic, full = kernels_8
        rel = np.abs(full.matrix - analytic.matrix) / analytic.matrix
        assert np.all(full.matrix >= analytic.matrix - 1e-12)
        assert rel.max() < 0.25
        assert rel.max() > 0.05

    def test_agreement_in_weak_turbulence(self, paper_spec, paper_geometry):
        profile = TurbulenceProfile.from_constant(1e-17)
        analytic = channel_kernel(paper_spec, profile, paper_geometry, grid_order=4)
        full = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=4,
            fidelity=KernelFidelity.FULL_IPE, cutoff=2,
        )
        rel = np.abs(full.matrix - analytic.matrix) / analytic.matrix
        assert rel.max() < 0.02

    def test_single_mode_cutoff_reduces_to_pure_decay(self, paper_spec, paper_geometry):
        # with no higher spatial modes the cross-frequency propagation is the
        # closed-form exponential; ties the full path to the analytic one
        profile = TurbulenceProfile.from_constant(1e-16)
        analytic = channel_kernel(paper_spec, profile, paper_geometry, grid_order=6)
        full = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=6,
            fidelity=KernelFidelity.FULL_IPE, cutoff=0,
        )
        assert np.max(np.abs(full.matrix - analytic.matrix)) < 1e-7

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_equal_frequencies_match_single_frequency_propagation(
        self, paper_spec, paper_geometry, cutoff
    ):
        # at omega1 = omega2 the cross-frequency generator is the
        # single-frequency one: G = A0 at every node, so the kernel's Lawson
        # steps are `propagate`'s, in another basis of the same eigenspaces
        profile = TurbulenceProfile.from_constant(1e-16)
        steps = 128
        full = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=4,
            fidelity=KernelFidelity.FULL_IPE, cutoff=cutoff, steps=steps,
        )
        rho0 = DensityMatrix.pure(ModeBasis(cutoff), LGIndex(l=0, r=0))
        for i, omega in enumerate(full.omegas):
            geom = replace(paper_geometry, wavelength=2.0 * math.pi * C / omega)
            rho = propagate(rho0, profile, geom, SolverConfig(cutoff=cutoff, steps=steps))
            assert full.matrix[i, i] == pytest.approx(lowest_mode_probability(rho), rel=1e-12)

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_equal_frequencies_alone_match_single_frequency_propagation(self, paper_spec, paper_geometry, cutoff):
        # with only equal-frequency pairs every beam-area ratio is 1, so the
        # coupling interpolant spans no spread: its one point is A0
        profile = TurbulenceProfile.from_constant(1e-16)
        omegas = frequency_grid(paper_spec, 4)[1:3]
        pairs = temporal._cross_frequency_full_ipe(omegas, omegas, profile, paper_geometry, cutoff, 128)
        rho0 = DensityMatrix.pure(ModeBasis(cutoff), LGIndex(l=0, r=0))
        for omega, value in zip(omegas, pairs.real):
            geom = replace(paper_geometry, wavelength=2.0 * math.pi * C / omega)
            rho = propagate(rho0, profile, geom, SolverConfig(cutoff=cutoff, steps=128))
            assert value == pytest.approx(lowest_mode_probability(rho), rel=1e-12)

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_steps_match_the_loop_oracle(self, paper_spec, paper_geometry, cutoff, monkeypatch):
        # the kernel steps through `ipe._lawson_loop` with its own operator;
        # the one-expression-per-stage loop on the same operator and
        # coefficients gives every pair's element bit for bit (at cutoff 2
        # the 128 steps come in two chunks)
        profile = TurbulenceProfile.from_constant(1e-16)
        omegas = frequency_grid(paper_spec, 4)
        rows, cols = np.triu_indices(4)
        fast = temporal._cross_frequency_full_ipe(omegas[rows], omegas[cols], profile, paper_geometry, cutoff, 128)
        monkeypatch.setattr(temporal, "_lawson_loop", lawson_loop)
        slow = temporal._cross_frequency_full_ipe(omegas[rows], omegas[cols], profile, paper_geometry, cutoff, 128)
        assert np.array_equal(fast, slow)

    def test_off_diagonal_matches_dense_integration(self, paper_spec, paper_geometry):
        # the sector-0 kernel against RK4 over the dense whole-basis coupling
        # at the carrier pair, every (m, n) coherence carried along; each
        # pair is stepped on its own, so only the two checked are run
        profile = TurbulenceProfile.from_constant(1e-16)
        omegas = frequency_grid(paper_spec, 8)
        pairs = omegas[[0, 3]], omegas[[7, 4]]
        full = temporal._cross_frequency_full_ipe(*pairs, profile, paper_geometry, 2, KERNEL_STEPS)
        for value, pair in zip(full.real, zip(*pairs)):
            expected = extrapolated(dense_fundamental, pair, ModeBasis(2), profile, paper_geometry)
            assert abs(value - expected.real) < 1e-12

    def test_every_pair_matches_dense_integration(self, paper_spec, paper_geometry):
        profile = TurbulenceProfile.from_constant(1e-16)
        full = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=4,
            fidelity=KernelFidelity.FULL_IPE, cutoff=1, steps=KERNEL_STEPS,
        )
        for i, j in zip(*np.triu_indices(4)):
            pair = (full.omegas[i], full.omegas[j])
            expected = extrapolated(dense_fundamental, pair, ModeBasis(1), profile, paper_geometry)
            assert abs(full.matrix[i, j] - expected.real) < 1e-12

    @pytest.mark.parametrize("grid_order", [4, 5, 8])
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3])
    def test_even_half_matches_whole_sector_oracle(self, paper_spec, paper_geometry, grid_order, cutoff):
        # the fundamental is reflection-even and so is every derivative of an
        # even state: Lawson steps on the l <= 0 blocks alone give the kernel
        # of RK4 over all of sector 0 (6.4e-14 relative here at most)
        profile = TurbulenceProfile.from_constant(1e-16)
        omegas = frequency_grid(paper_spec, grid_order)
        rows, cols = np.triu_indices(grid_order)
        expected = extrapolated(whole_sector_fundamental, omegas[rows], omegas[cols], profile, paper_geometry, cutoff)
        kernel = channel_kernel(
            paper_spec, profile, paper_geometry, grid_order=grid_order,
            fidelity=KernelFidelity.FULL_IPE, cutoff=cutoff, steps=KERNEL_STEPS,
        )
        assert np.max(np.abs(kernel.matrix[rows, cols] - expected.real) / expected.real) <= 1e-12

    def test_symmetry_and_range(self, kernels_8):
        _, full = kernels_8
        assert np.array_equal(full.matrix, full.matrix.T)
        assert np.all(full.matrix > 0.0)
        assert np.all(full.matrix <= 1.0)

    def test_matrix_is_real_float64_and_exactly_symmetric(self, kernels_8):
        _, full = kernels_8
        assert full.matrix.dtype == np.float64
        assert np.array_equal(full.matrix, full.matrix.T)

    def test_imaginary_part_guard(self, paper_spec, paper_geometry):
        # at 1e-15 the dispersive phase of the far off-diagonal pairs is no
        # longer a perturbation (imaginary part 2.3e-3); every pair is
        # checked on its own, so no small pair can mask a large one
        with pytest.raises(RuntimeError, match="imaginary part"):
            channel_kernel(
                paper_spec, TurbulenceProfile.from_constant(1e-15), paper_geometry,
                grid_order=8, fidelity=KernelFidelity.FULL_IPE, cutoff=2,
            )

    @pytest.mark.parametrize(
        "profile, steps, refused",
        [(TurbulenceProfile.from_constant(1e-13), 256, False),
         (TurbulenceProfile.from_constant(1e-14), 64, True),
         (TurbulenceProfile.from_constant(1e-11), 256, False),
         (TurbulenceProfile.from_table([(1.0, 1e-11), (100.0, 1e-11)]), 256, False)],
        ids=["1e-13", "1e-14", "1e-11", "tabulated"],
    )
    def test_strong_turbulence_runs_at_any_step_count(self, paper_spec, paper_geometry, profile, steps, refused):
        # far past classical RK4's limit (h * max rate * rho(A0) is 53.9 at
        # 1e-13 and 256 steps): Lawson steps take the A0 part exactly, so each
        # count is finite and converged.  At 1e-14 the dispersive phase is no
        # perturbation (15 % of the real part), so that kernel stops at the
        # imaginary-part guard
        omegas = frequency_grid(paper_spec, 8)
        pairs = omegas[[0, 0, 3]], omegas[[0, 7, 4]]  # each pair is stepped on its own
        coarse, fine = (
            temporal._cross_frequency_full_ipe(*pairs, profile, paper_geometry, 2, count) for count in (steps, 1024)
        )
        assert np.all(np.isfinite(coarse))
        assert np.max(np.abs(coarse - fine)) <= 1e-8

        def kernel():
            return channel_kernel(paper_spec, profile, paper_geometry, grid_order=8,
                                  fidelity=KernelFidelity.FULL_IPE, cutoff=2, steps=steps)

        if refused:
            with pytest.raises(RuntimeError, match="imaginary part"):
                kernel()
        else:
            assert np.all(np.isfinite(kernel().matrix))

    @pytest.mark.parametrize(
        "steps, message",
        [(0, "step count must be >= 16"), (15, "step count must be >= 16"),
         (True, "steps must be a non-negative int"), (2.5, "steps must be a non-negative int")],
        ids=["zero", "fifteen", "bool", "float"],
    )
    def test_step_count_checked_as_by_propagate(self, paper_spec, paper_geometry, steps, message):
        # 0 used to raise ZeroDivisionError, True to run one step and 2.5 a
        # TypeError; the analytic kernel reads no step count
        profile = TurbulenceProfile.from_constant(1e-16)
        with pytest.raises(ValueError, match=message):
            channel_kernel(paper_spec, profile, paper_geometry, grid_order=4,
                           fidelity=KernelFidelity.FULL_IPE, cutoff=1, steps=steps)
        channel_kernel(paper_spec, profile, paper_geometry, grid_order=4, steps=steps)

    def test_imaginary_part_guard_catches_nan(self, paper_spec, paper_geometry, monkeypatch):
        # a NaN in the rate table makes a NaN element, which an ordered
        # comparison with the 5 % bound lets through
        def rate_with_nan(*args):
            rate = l_cross(*args)
            rate[len(rate) // 2, 0] = np.nan
            return rate

        monkeypatch.setattr(temporal, "l_cross", rate_with_nan)
        with pytest.raises(RuntimeError, match="imaginary part nan"):
            channel_kernel(
                paper_spec, TurbulenceProfile.from_constant(1e-16), paper_geometry,
                grid_order=8, fidelity=KernelFidelity.FULL_IPE, cutoff=2,
            )

    @pytest.mark.parametrize("length, steps", [(4896.6, 256), (16782.6, 128), (16782.6, 256)])
    def test_tabulated_profile_at_any_link_length(self, paper_spec, length, steps):
        # accumulating z += h put the last RK4 node a few ulps past the path
        # end at these lengths, where the chord height is undefined
        profile = TurbulenceProfile.from_table([(2.0, 1e-15), (50.0, 1e-16), (500.0, 1e-17)])
        geom = LinkGeometry(length, 19.0, 19.0, 0.1457, 3.95e-6)
        kernel = channel_kernel(
            paper_spec, profile, geom, grid_order=4,
            fidelity=KernelFidelity.FULL_IPE, cutoff=1, steps=steps,
        )
        assert np.all((kernel.matrix > 0.0) & (kernel.matrix <= 1.0))


def extrapolated(oracle, *args):
    """An RK4 oracle's value (its last argument the step count) from 128 and
    256 steps: RK4 errs as h^4, so (16 fine - coarse) / 15 cancels the
    leading term.  That leaves 1.4e-13 of the largest entry on these links,
    as little as 1024 steps would, at three eighths of the cost."""
    coarse, fine = (oracle(*args, steps) for steps in (128, 256))
    return (16 * fine - coarse) / 15


def dense_fundamental(pair, basis, profile, geom, steps):
    """Fundamental-fundamental element after RK4 over the dense whole-basis
    coupling at the carrier pair (the lab-frame oracle)."""
    size = basis.size
    fundamental = basis.fundamental * (size + 1)
    h = geom.path_length / steps

    def generator(z):
        cn2 = cn2_at(profile, geom, z)
        entries = dense_pair_coupling(basis, z, cn2, geom.waist, pair)
        return entries.reshape(size * size, size * size).T  # [(u, v), (m, n)]

    state = np.zeros(size * size, dtype=complex)
    state[fundamental] = 1.0
    z, end = 0.0, generator(0.0)
    for _ in range(steps):
        # each step starts where the last one ended
        start, middle, end = end, generator(z + 0.5 * h), generator(z + h)
        k1 = start @ state
        k2 = middle @ (state + 0.5 * h * k1)
        k3 = middle @ (state + 0.5 * h * k2)
        k4 = end @ (state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z += h
    return state[fundamental]


class TestModeTrace:
    def test_zero_turbulence_unity(self, paper_spec, kernel_zero):
        for n in range(11):
            assert mode_trace(kernel_zero, paper_spec, n) == pytest.approx(1.0, abs=1e-10)

    def test_all_traces_above_forty_db(self, paper_spec, kernel_1e15):
        traces = [mode_trace(kernel_1e15, paper_spec, n) for n in range(11)]
        assert all(t > 1e-4 for t in traces)

    def test_trend_flips_with_turbulence_strength(self, paper_spec, paper_geometry, kernel_1e15):
        # deep decay rewards the low-frequency wing: traces grow with mode
        # order; in the weak (linearized) regime wider modes lose more
        strong = [mode_trace(kernel_1e15, paper_spec, n) for n in range(11)]
        assert np.all(np.diff(strong) > 0)
        weak_kernel = channel_kernel(
            paper_spec, TurbulenceProfile.from_constant(1e-17), paper_geometry, grid_order=64
        )
        weak = [mode_trace(weak_kernel, paper_spec, n) for n in range(11)]
        assert np.all(np.diff(weak) < 0)

    def test_under_resolved_mode_rejected(self, paper_spec, paper_geometry):
        profile = TurbulenceProfile.from_constant(1e-16)
        kernel = channel_kernel(paper_spec, profile, paper_geometry, grid_order=8)
        with pytest.raises(ResolutionError):
            mode_trace(kernel, paper_spec, 4)

    def test_traces_computed_once_and_read_only(self, paper_spec, kernel_1e15):
        # every resolvable mode's trace, as the per-mode sum over its own row
        traces = kernel_1e15.traces
        assert traces is kernel_1e15.traces and not traces.flags.writeable
        psi = kernel_1e15.mode_vectors(kernel_1e15.order // 2)
        assert traces.tolist() == [float((row * row * np.diag(kernel_1e15.matrix)).sum()) for row in psi]
        assert [mode_trace(kernel_1e15, paper_spec, n) for n in range(len(psi))] == traces.tolist()


def g16_kernel(spec, geom):
    return channel_kernel(spec, TurbulenceProfile.from_constant(1e-16), geom, grid_order=16)


class TestModeIndices:
    """A negative or bool mode index is refused by name, never read as a
    mode counted from the end or as mode 0 or 1."""

    def test_negative_trace_index_not_counted_from_the_end(self, paper_spec, paper_geometry):
        with pytest.raises(ValueError, match=r"n must be a non-negative int, not -3"):
            mode_trace(g16_kernel(paper_spec, paper_geometry), paper_spec, -3)

    def test_bool_trace_index_refused(self, paper_spec, paper_geometry):
        with pytest.raises(ValueError, match=r"n must be a non-negative int, not True"):
            mode_trace(g16_kernel(paper_spec, paper_geometry), paper_spec, True)

    def test_trace_index_minus_one_refused(self, paper_spec, paper_geometry):
        with pytest.raises(ValueError, match=r"n must be a non-negative int, not -1"):
            mode_trace(g16_kernel(paper_spec, paper_geometry), paper_spec, -1)

    def test_negative_max_mode_refused(self, paper_spec, paper_geometry):
        with pytest.raises(ValueError, match=r"max_mode must be a non-negative int, not -1"):
            transmission_matrix(g16_kernel(paper_spec, paper_geometry), paper_spec, -1)

    @pytest.mark.parametrize("count", [-1, False, 2.0])
    def test_mode_vector_count_refused(self, paper_spec, paper_geometry, count):
        with pytest.raises(ValueError, match=rf"count must be a non-negative int, not {count!r}"):
            g16_kernel(paper_spec, paper_geometry).mode_vectors(count)

    def test_numpy_ints_accepted(self, paper_spec, paper_geometry):
        kernel = g16_kernel(paper_spec, paper_geometry)
        assert mode_trace(kernel, paper_spec, np.int64(3)) == mode_trace(kernel, paper_spec, 3)
        assert kernel.mode_vectors(np.int64(0)).shape == (0, 16)


class TestTransmissionMatrix:
    def test_zero_turbulence_identity(self, paper_spec, kernel_zero):
        tm = transmission_matrix(kernel_zero, paper_spec, 3)
        assert np.max(np.abs(tm.matrix - np.eye(4))) < 1e-10
        assert tm.traces == pytest.approx(np.ones(4), abs=1e-10)

    def test_paper_matrix(self, paper_spec, kernel_1e15):
        tm = transmission_matrix(kernel_1e15, paper_spec, 3)
        assert np.max(np.abs(tm.matrix - PAPER_MATRIX)) < 0.02

    def test_far_couplings_small(self, paper_spec, kernel_1e15):
        tm = transmission_matrix(kernel_1e15, paper_spec, 3)
        for n in range(4):
            for m in range(4):
                if abs(n - m) >= 2:
                    assert tm.matrix[n, m] < 0.05

    def test_row_sums_plus_leakage(self, paper_spec, kernel_1e15):
        # leakage recomputed independently from the modes above the cut
        tm = transmission_matrix(kernel_1e15, paper_spec, 3)
        wide = transmission_matrix(kernel_1e15, paper_spec, 31)
        for n in range(4):
            above = float(wide.matrix[n, 4:].sum())
            assert tm.matrix[n].sum() + above == pytest.approx(1.0, abs=1e-6)

    def test_grid_refinement_stability(self, paper_spec, paper_geometry, kernel_1e15):
        profile = TurbulenceProfile.from_constant(1e-15)
        coarse = channel_kernel(paper_spec, profile, paper_geometry, grid_order=32)
        tm32 = transmission_matrix(coarse, paper_spec, 3)
        tm64 = transmission_matrix(kernel_1e15, paper_spec, 3)
        assert np.max(np.abs(tm64.matrix - tm32.matrix)) < 1e-4

    def test_row_normalization_by_traces(self, paper_spec, kernel_1e15):
        # one trace expression: the rows' traces are mode_trace's, bit for bit
        tm = transmission_matrix(kernel_1e15, paper_spec, 31)
        assert tm.traces.tolist() == [mode_trace(kernel_1e15, paper_spec, n) for n in range(32)]

    @pytest.mark.parametrize("cn2", [1e-17, 1e-15, 1e-14])
    @pytest.mark.parametrize(
        "grid_order, max_mode", [(16, 3), (16, 7), (32, 3), (32, 7), (64, 3), (64, 7), (64, 31)]
    )
    def test_matches_three_operand_contraction(self, paper_spec, paper_geometry, grid_order, max_mode, cn2):
        kernel = channel_kernel(paper_spec, TurbulenceProfile.from_constant(cn2), paper_geometry, grid_order)
        tm = transmission_matrix(kernel, paper_spec, max_mode)
        np.testing.assert_allclose(tm.matrix, einsum_transmission(kernel, max_mode), rtol=0.0, atol=1e-14)


class TestModeStack:
    @pytest.mark.parametrize("order", GRID_ORDERS)
    def test_rows_are_hermite_functions_on_the_rule(self, paper_spec, paper_geometry, order):
        kernel = channel_kernel(
            paper_spec, TurbulenceProfile.from_constant(0.0), paper_geometry, grid_order=order
        )
        rule = gauss_hermite_rule(order)
        half_gauss = np.sqrt(rule.weights) * np.exp(0.5 * rule.nodes * rule.nodes)
        for count in range(1, order // 2 + 1):
            psi = kernel.mode_vectors(count)
            assert psi.shape == (count, order)
            for n in range(count):
                assert np.array_equal(psi[n], hermite_functions(n + 1, rule.nodes)[n] * half_gauss)
        with pytest.raises(ResolutionError):
            kernel.mode_vectors(order // 2 + 1)

    def test_stack_is_read_only(self, kernel_1e15):
        stack = kernel_1e15.mode_vectors(kernel_1e15.order // 2)
        for view in (stack, kernel_1e15.mode_vectors(3)):
            with pytest.raises(ValueError):
                view[0, 0] = 0.0


def einsum_transmission(kernel, max_mode):
    """Oracle: S[n, m] = sum_ij o_nm(i) P(i, j) o_nm(j) with o_nm = psi_n * psi_m,
    one three-operand contraction, over the traces sum_i psi_n(i)^2 P(i, i)."""
    psi = kernel.mode_vectors(max_mode + 1)
    overlap = psi[:, None, :] * psi[None, :, :]  # (n, m, grid)
    s = np.einsum("nmi,ij,nmj->nm", overlap, kernel.matrix, overlap)
    return s / np.einsum("ni,ni,i->n", psi, psi, np.diag(kernel.matrix))[:, None]


def link_outputs(kernel, spec, max_mode):
    """Mode traces and, unless a mode is fully absorbed, the transmission matrix."""
    traces = [mode_trace(kernel, spec, n) for n in range(max_mode + 1)]
    if min(traces) > 0.0:
        return traces, transmission_matrix(kernel, spec, max_mode)
    with pytest.raises(RuntimeError, match="fully absorbed"):
        transmission_matrix(kernel, spec, max_mode)
    return traces, None


def validator_range(key):
    """Log-uniform draws over the config validator's range of `key`."""
    lower, upper, _ = RANGES[key]
    exponents = st.floats(math.log10(lower), math.log10(upper))
    return exponents.map(lambda e: min(upper, max(lower, 10.0**e)))


class TestLinkProperties:
    @given(
        order=st.sampled_from(GRID_ORDERS),
        data=st.data(),
        cn2=st.one_of(st.just(0.0), validator_range("cn2")),
        distance=validator_range("distance_m"),
        waist=validator_range("waist_m"),
    )
    def test_link_outputs(self, paper_spec, order, data, cn2, distance, waist):
        max_mode = data.draw(st.integers(0, min(RANGES["max_mode"][1], order // 2 - 1)))
        profile = TurbulenceProfile.from_constant(cn2)
        geom = LinkGeometry(distance, 19.0, 19.0, waist, 3.95e-6)
        # the first kernel of this order is built on empty caches
        gauss_hermite_rule.cache_clear()
        discrete_modes.cache_clear()
        first = channel_kernel(paper_spec, profile, geom, grid_order=order)
        first_traces, first_tm = link_outputs(first, paper_spec, max_mode)
        for other in GRID_ORDERS:
            if other != order:
                channel_kernel(paper_spec, profile, geom, grid_order=other).mode_vectors(other // 2)
        kernel = channel_kernel(paper_spec, profile, geom, grid_order=order)
        assert np.array_equal(kernel.matrix, first.matrix)
        traces, tm = link_outputs(kernel, paper_spec, max_mode)
        assert traces == first_traces
        if tm is None:
            return
        assert np.array_equal(tm.matrix, first_tm.matrix)
        assert np.array_equal(tm.traces, traces)
        assert np.all(tm.matrix >= -5e-3)
        assert np.all(tm.matrix.sum(axis=1) <= 1.0 + 5e-3)


def single_photon_output(kernel, spec, n, max_mode):
    """Output density over modes 0..max_mode for input mode n, normalized by
    the mode trace T_n, and the leakage mass above the truncation: the
    (:, :, n, n) slice of the one-photon channel tensor."""
    tensor = channel_tensor(kernel, max(max_mode, n) + 1)
    density = tensor[: max_mode + 1, : max_mode + 1, n, n] / mode_trace(kernel, spec, n)
    return density, 1.0 - float(np.trace(density))


class TestApplyChannel:
    def test_zero_turbulence_pure_output(self, paper_spec, kernel_zero):
        for n in (0, 2, 5):
            density, leakage = single_photon_output(kernel_zero, paper_spec, n, 6)
            expected = np.zeros((7, 7))
            expected[n, n] = 1.0
            assert np.max(np.abs(density - expected)) < 1e-10
            assert leakage == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_matches_transmission_row(self, paper_spec, kernel_1e15):
        tm = transmission_matrix(kernel_1e15, paper_spec, 3)
        density, _ = single_photon_output(kernel_1e15, paper_spec, 0, 3)
        assert np.diag(density).real == pytest.approx(tm.matrix[0], rel=1e-12)

    def test_output_nearly_positive(self, paper_spec, kernel_1e15, kernel_1e16):
        # the pure-decay kernel is not an exactly positive multiplier; the
        # violations stay at the few-1e-3 level (see decisions ledger)
        for kernel in (kernel_1e15, kernel_1e16):
            for n in range(11):
                density, _ = single_photon_output(kernel, paper_spec, n, 11)
                assert np.max(np.abs(density - density.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(density)[0] > -1e-2

    def test_hermitian_output(self, paper_spec, kernel_1e15):
        density, _ = single_photon_output(kernel_1e15, paper_spec, 2, 5)
        assert np.max(np.abs(density - density.conj().T)) < 1e-14
