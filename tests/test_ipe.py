import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import complex_sector_derivative, dense_generator
from ipe_oracle import lawson_loop, step_product
from spectrum_oracle import fried_parameter

from turbulink.ipe import (
    COUPLING_PREFACTOR,
    DECAY_CONSTANT,
    STEP_MATRIX_SIZE,
    DensityMatrix,
    PropagationScheme,
    SolverConfig,
    SolverError,
    analytic_decay,
    cutoff_bracketing,
    distance_sweep,
    lowest_mode_probability,
    propagate,
)
from turbulink.lgmodes import MAX_COUPLING_CUTOFF, LGIndex, ModeBasis
from turbulink.turbulence import LinkGeometry, TurbulenceProfile, cn2_at, l_strength

LAM = 3.95e-6
W0 = 0.1457


def geometry(distance=3.0e4, waist=W0):
    return LinkGeometry(
        path_length=distance,
        transmitter_height=19.0,
        receiver_height=19.0,
        waist=waist,
        wavelength=LAM,
    )


def assemble_superoperator(basis, z, profile, geom, scheme):
    """Oracle: dense superoperator R(z) acting on the row-major vectorized density.

    Built from the dense masked coupling sum over the whole basis, in the
    lab frame: the gain carries its Gouy phases explicitly and the Lindblad
    anticommutator is a Kronecker sum, so it shares no code path with the
    rotating-frame sector derivative in turbulink.ipe.
    """
    size = basis.size
    gain0, gamma0 = dense_generator(basis.cutoff)
    rate = COUPLING_PREFACTOR * l_strength(
        z, cn2_at(profile, geom, z), geom.wavelength, geom.waist
    )
    theta = math.atan2(z, geom.rayleigh_range)
    gouy = np.array([idx.gouy_weight for idx in basis.indices])
    e = np.exp(2j * theta * gouy)
    # [(u,v),(m,n)] carries e^{2i theta ((gamma_m - gamma_u) - (gamma_n - gamma_v))}
    into = (np.conj(e)[:, None] * e[None, :]).reshape(-1)
    out_of = (e[:, None] * np.conj(e)[None, :]).reshape(-1)
    gain = rate * (into[:, None] * gain0 * out_of[None, :])
    if scheme is PropagationScheme.TRUNCATED_EXACT:
        return gain
    # Gamma(z)[m, u] carries the phase e^{2i theta (gamma_m - gamma_u)} of the
    # gain's outflow from rho_mn, so that the loss balances it
    gamma = rate * np.exp(2j * theta * (gouy[:, None] - gouy[None, :])) * gamma0
    q = gamma.T  # anticommutator matrix Q = Gamma^T, Hermitian
    eye = np.eye(size)
    return gain - 0.5 * (np.kron(q, eye) + np.kron(eye, q.T))


def coherent_state(basis, seed=3):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(basis=basis, matrix=np.outer(vec, vec.conj()))


class TestAssembly:
    def test_single_mode_generator_is_pure_decay(self):
        basis = ModeBasis(0)
        geom = geometry()
        profile = TurbulenceProfile.from_constant(1e-15)
        for z in (0.0, 1.0e4, 3.0e4):
            matrix = assemble_superoperator(basis, z, profile, geom, PropagationScheme.TRUNCATED_EXACT)
            assert matrix.shape == (1, 1)
            expected = -DECAY_CONST_TIMES_L(z, geom)
            assert matrix[0, 0].real == pytest.approx(expected, rel=1e-12)
            assert abs(matrix[0, 0].imag) < 1e-20

    def test_zero_turbulence_generator_vanishes(self):
        basis = ModeBasis(1)
        geom = geometry()
        profile = TurbulenceProfile.from_constant(0.0)
        for scheme in PropagationScheme:
            matrix = assemble_superoperator(basis, 1.0e4, profile, geom, scheme)
            assert np.all(matrix == 0)

    def test_selection_rule_sparsity(self):
        basis = ModeBasis(1)
        geom = geometry()
        profile = TurbulenceProfile.from_constant(1e-15)
        ls = np.array([idx.l for idx in basis.indices])
        size = basis.size
        for scheme in PropagationScheme:
            matrix = assemble_superoperator(basis, 1.0e4, profile, geom, scheme)
            for row in range(size * size):
                u, v = divmod(row, size)
                for col in range(size * size):
                    m, n = divmod(col, size)
                    if ls[m] - ls[u] != ls[n] - ls[v]:
                        assert matrix[row, col] == 0


def DECAY_CONST_TIMES_L(z, geom):
    return DECAY_CONSTANT * l_strength(z, 1e-15, geom.wavelength, geom.waist)


def spectral_derivative(cutoff, delta, scheme, rates, gouy_rates):
    """d x / dz at node k, rate_k A x + gouy_k C x, from the eigendecomposition
    A = V diag(values) V^T and the rotation V^T C V that `propagate` steps with."""
    from turbulink.ipe import sector_spectrum

    values, vectors, rotation, _ = sector_spectrum(cutoff, delta, scheme)

    def derivative(k, x):
        u = vectors.T @ x
        return vectors @ (rates[k] * values * u + gouy_rates[k] * (rotation @ u))

    return derivative


class TestSectorDerivative:
    def test_operators_symmetric_in_isometric_coordinates(self):
        # every sector operator is self-adjoint in the Hilbert-Schmidt metric,
        # and with Q the Hermitian part of Gamma0^T it is a symmetric matrix
        # in the isometric coordinates, up to rounding
        from turbulink.ipe import generator_parts

        for cutoff in range(7):
            for delta in range(2 * cutoff + 1):
                for scheme in PropagationScheme:
                    operator = generator_parts(cutoff, delta, scheme)[0]
                    assert np.max(np.abs(operator - operator.T)) <= 1e-15 * np.max(np.abs(operator))

    @pytest.mark.parametrize("cutoff", range(5))
    def test_real_coordinates_match_complex_blocks(self, cutoff):
        # every sector and both schemes, on random states at random nodes of a
        # 30 km run (theta up to ~1.1 rad).  Sector 0's coordinates hold
        # Hermitian blocks, so there the oracle's Hermitian part is the
        # reference.  The scale is the largest entry, but at least
        # rate * |rho| (the size of one term): at cutoff 0 the Lindblad gain
        # and bracket cancel exactly.
        from turbulink.ipe import _blocks, _coordinates, rk4_nodes

        geom, side = geometry(), cutoff + 1
        z, cn2 = rk4_nodes(TurbulenceProfile.from_constant(1e-15), geom, 64)
        z_r = geom.rayleigh_range
        rates, gouy_rates = COUPLING_PREFACTOR * l_strength(z, cn2, LAM, W0), z_r / (z_r**2 + z**2)
        rng = np.random.default_rng(40 + cutoff)
        for scheme in PropagationScheme:
            lindblad = scheme is PropagationScheme.LINDBLAD_TRUNCATED
            for delta in range(2 * cutoff + 1):
                oracle = complex_sector_derivative(cutoff, delta, lindblad, rates, gouy_rates)
                derivative = spectral_derivative(cutoff, delta, scheme, rates, gouy_rates)
                count, hermitian = 2 * cutoff + 1 - delta, delta == 0
                rho = rng.normal(size=(count, side, side)) + 1j * rng.normal(size=(count, side, side))
                if hermitian:
                    rho = rho + rho.conj().transpose(0, 2, 1)
                x = _coordinates(rho, hermitian)
                assert len(x) == (1 if hermitian else 2) * count * side * side
                assert np.max(np.abs(_blocks(x, count, side, hermitian) - rho)) < 1e-15 * np.max(np.abs(rho))
                for k in rng.integers(0, len(z), 4):
                    expected = oracle(k, rho)
                    if hermitian:
                        expected = 0.5 * (expected + expected.conj().transpose(0, 2, 1))
                    got = _blocks(derivative(k, x), count, side, hermitian)
                    scale = max(np.max(np.abs(expected)), rates[k] * np.max(np.abs(rho)))
                    assert np.max(np.abs(got - expected)) <= 1e-13 * scale


class TestStepMatrices:
    @pytest.mark.parametrize("cutoff", [0, 1])
    @pytest.mark.parametrize("steps", [17, 256])
    def test_step_product_matches_rk4_loop(self, cutoff, steps):
        # the step maps against the Lawson RK4 loop, every sector of both
        # schemes on random states, with the node table of a 30 km run; the
        # scale is the largest entry of the result
        from turbulink.ipe import _lawson_factors, _lawson_loop, _step_product, rk4_nodes, sector_spectrum

        geom = geometry()
        z, cn2 = rk4_nodes(TurbulenceProfile.from_constant(1e-15), geom, steps)
        rates, h = COUPLING_PREFACTOR * l_strength(z, cn2, LAM, W0), geom.path_length / steps
        table = np.column_stack([rates, geom.rayleigh_range / (geom.rayleigh_range**2 + z**2)])
        rng = np.random.default_rng(60 + cutoff)
        for scheme in PropagationScheme:
            for delta in range(2 * cutoff + 1):
                values, _, rotation, stepping = sector_spectrum(cutoff, delta, scheme)
                u = rng.normal(size=len(values))
                assert len(u) <= STEP_MATRIX_SIZE
                factors = _lawson_factors(table, h, values, step_major=False)
                expected = _lawson_loop(rotation, u, factors)
                got = _step_product(stepping[-1], u, factors)
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_step_maps_match_the_reference(self):
        # the maps on their cached operands against the form that built the
        # operands on every call, bit for bit: every block of at most
        # STEP_MATRIX_SIZE coordinates (cutoffs 0-1 with sector 0's odd half,
        # and at cutoff 2 delta 4 and sector 0's odd half) of both schemes on
        # random states, with a step count that leaves odd levels in the
        # product tree and one that does not
        from turbulink.ipe import _lawson_factors, _step_product, _stepping, rk4_nodes, sector_spectrum

        geom, rng, sizes = geometry(), np.random.default_rng(70), set()
        for steps in (17, 256):
            z, cn2 = rk4_nodes(TurbulenceProfile.from_constant(1e-15), geom, steps)
            rates, h = COUPLING_PREFACTOR * l_strength(z, cn2, LAM, W0), geom.path_length / steps
            table = np.column_stack([rates, geom.rayleigh_range / (geom.rayleigh_range**2 + z**2)])
            for cutoff in range(3):
                even = (cutoff + 1) ** 3
                for scheme in PropagationScheme:
                    for delta in range(2 * cutoff + 1):
                        values, _, rotation, stepping = sector_spectrum(cutoff, delta, scheme)
                        blocks = [(values[: len(ops[0])], ops) for ops in stepping]
                        if delta == 0 and len(values) > even:
                            odd = np.ascontiguousarray(rotation[even:, even:])
                            blocks.append((values[even:], _stepping(odd, [len(odd)])[0]))
                        for part, operands in blocks:
                            if len(part) > STEP_MATRIX_SIZE:
                                continue
                            sizes.add((cutoff, len(part)))
                            u = rng.normal(size=len(part))
                            factors = _lawson_factors(table, h, part, step_major=False)
                            expected = step_product(operands[0], u, factors)
                            assert np.array_equal(_step_product(operands, u, factors), expected)
        assert sizes == {(0, 1), (1, 4), (1, 8), (1, 12), (1, 16), (2, 18)}

    def test_stepping_operands_are_cached_read_only(self):
        # per sector the stepped blocks (sector 0's even half, then the whole
        # sector), C-contiguous and read-only, the whole one in the rotation's
        # memory; the map operands only up to STEP_MATRIX_SIZE coordinates
        from turbulink.ipe import sector_spectrum

        for cutoff in range(4):
            for scheme in PropagationScheme:
                for delta in range(2 * cutoff + 1):
                    entry = sector_spectrum(cutoff, delta, scheme)
                    assert sector_spectrum(cutoff, delta, scheme) is entry
                    values, _, rotation, stepping = entry
                    sizes = {(cutoff + 1) ** 3 if delta == 0 else len(values), len(values)}
                    assert [len(block) for block, _, _ in stepping] == sorted(sizes)
                    assert np.shares_memory(stepping[-1][0], rotation)
                    for block, pick, turned in stepping:
                        m = len(block)
                        assert block.flags.c_contiguous and np.array_equal(block, rotation[:m, :m])
                        assert (pick is None) == (turned is None) == (m > STEP_MATRIX_SIZE)
                        for array in (block, pick, turned):
                            assert array is None or not array.flags.writeable

    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_propagate_matches_rk4_loop(self, cutoff, monkeypatch):
        # a random pure input occupies every sector; STEP_MATRIX_SIZE = 0
        # sends each of them through `_lawson_loop` instead, and chunks
        # of 5 steps leave a short last chunk at every step count here
        from turbulink import ipe

        profile, geom = TurbulenceProfile.from_constant(1e-16), geometry(distance=2.0e3)
        rho0 = coherent_state(ModeBasis(cutoff), seed=7)
        calls, product = [], ipe._step_product
        monkeypatch.setattr(ipe, "_step_product", lambda *args: calls.append(1) or product(*args))
        monkeypatch.setattr(ipe, "STEP_CHUNK", 5)
        for scheme in PropagationScheme:
            for steps, check in ((17, True), (17, False), (256, True)):
                config = SolverConfig(cutoff=cutoff, scheme=scheme, steps=steps, check_convergence=check)
                fast = propagate(rho0, profile, geom, config).matrix
                with monkeypatch.context() as patch:
                    patch.setattr(ipe, "STEP_MATRIX_SIZE", 0)
                    slow = propagate(rho0, profile, geom, config).matrix
                assert np.max(np.abs(fast - slow)) <= 1e-14
        assert calls

    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    def test_lawson_loop_matches_the_oracle(self, cutoff, monkeypatch):
        # the allocation-free loop against the one-expression-per-stage loop
        # it replaced, bit for bit: every sector (and sector 0's even half,
        # which `propagate` hands over as a contiguous copy) of both schemes
        # on random states, then `propagate` of a random pure state, which
        # occupies every sector, in chunks of 5 steps
        from turbulink import ipe

        geom = geometry()
        z, cn2 = ipe.rk4_nodes(TurbulenceProfile.from_constant(1e-15), geom, 64)
        rates, h = COUPLING_PREFACTOR * l_strength(z, cn2, LAM, W0), geom.path_length / 64
        table = np.column_stack([rates, geom.rayleigh_range / (geom.rayleigh_range**2 + z**2)])
        rng = np.random.default_rng(80 + cutoff)
        for scheme in PropagationScheme:
            for delta in range(2 * cutoff + 1):
                values, _, rotation, _ = ipe.sector_spectrum(cutoff, delta, scheme)
                parts = [slice(None), slice(0, (cutoff + 1) ** 3)] if delta == 0 else [slice(None)]
                for part in parts:
                    block, u = rotation[part, part], rng.normal(size=len(values[part]))
                    factors = ipe._lawson_factors(table, h, values[part], step_major=True)
                    expected = lawson_loop(block, u, factors)
                    assert np.array_equal(ipe._lawson_loop(np.ascontiguousarray(block), u, factors), expected)
        profile, geom = TurbulenceProfile.from_constant(1e-16), geometry(distance=2.0e3)
        rho0 = coherent_state(ModeBasis(cutoff), seed=cutoff)
        monkeypatch.setattr(ipe, "STEP_CHUNK", 5)
        for scheme in PropagationScheme:
            config = SolverConfig(cutoff=cutoff, scheme=scheme, steps=17, check_convergence=True)
            fast = propagate(rho0, profile, geom, config).matrix
            with monkeypatch.context() as patch:
                patch.setattr(ipe, "_lawson_loop", lawson_loop)
                assert np.array_equal(fast, propagate(rho0, profile, geom, config).matrix)

    def test_threads_keep_their_own_buffers(self):
        # the step maps, coefficients and stages live in per-thread buffers,
        # and the read-only stepping operands of `sector_spectrum` are shared:
        # runs in more threads than cores, switching often, match the serial
        # result bit for bit and step with the same operand objects (cutoff 1
        # uses the step maps, cutoff 2 the loop: on sector 0's even half for
        # the fundamental, on the whole sector for LG(l=+1), which fills both
        # halves)
        import threading

        from turbulink.ipe import sector_spectrum

        profile, geom = TurbulenceProfile.from_constant(1e-15), geometry()
        runs = [(cutoff, scheme, l) for cutoff in (1, 2) for scheme in PropagationScheme for l in (0, 1)]

        def run(cutoff, scheme, l):
            rho0 = DensityMatrix.pure(ModeBasis(cutoff), LGIndex(l=l, r=0))
            matrix = propagate(rho0, profile, geom, SolverConfig(cutoff=cutoff, scheme=scheme, steps=300)).matrix
            return matrix, [sector_spectrum(cutoff, delta, scheme)[3] for delta in range(2 * cutoff + 1)]

        serial = [run(*args) for args in runs]
        results, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda i=i: results.update({i: [run(*args) for args in runs]}))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == len(threads)
        for outputs in results.values():
            for (got, operands), (expected, shared) in zip(outputs, serial):
                assert np.array_equal(got, expected)
                assert all(a is b for a, b in zip(operands, shared, strict=True))

    def test_sector_spectrum_matches_an_uncached_build(self):
        # Gamma0 comes from the cached sector-0 block of each cutoff
        from turbulink.ipe import sector_spectrum
        from turbulink.lgmodes import _real_sector

        for cutoff in range(5):
            for scheme in PropagationScheme:
                cached = [sector_spectrum(cutoff, delta, scheme) for delta in range(2 * cutoff + 1)]
                for delta, parts in enumerate(cached):
                    _real_sector.cache_clear()
                    fresh = sector_spectrum.__wrapped__(cutoff, delta, scheme)
                    assert all(np.array_equal(a, b) for a, b in zip(fresh[:3], parts))
                    # the stepping operands, None where a block is too large for the maps
                    assert len(fresh[3]) == len(parts[3])
                    for new, old in zip(fresh[3], parts[3]):
                        assert all(np.array_equal(a, b) for a, b in zip(new, old))


def unsplit_spectrum(cutoff, delta, scheme):
    """Reference for `sector_spectrum` without the reflection split: `eigh`
    of the whole `generator_parts` A, the rotation V^T C V, and the stepping
    operands of that rotation."""
    from turbulink.ipe import _stepping, generator_parts

    operator, commutator = generator_parts(cutoff, delta, scheme)
    values, vectors = np.linalg.eigh(operator)
    rotation = vectors.T @ (commutator @ vectors)
    sizes = {(cutoff + 1) ** 3 if delta == 0 else len(values), len(values)}
    return values, vectors, rotation, _stepping(rotation, sorted(sizes))


class TestReflectionHalves:
    @pytest.mark.parametrize("cutoff", range(5))
    def test_sector_spectrum_keeps_the_halves_apart(self, cutoff):
        # even columns first; the halves share no rotation entry, and a
        # fundamental input has nothing in the odd half
        from turbulink.ipe import _coordinates, sector_spectrum

        even, side = (cutoff + 1) ** 3, cutoff + 1
        fundamental = np.zeros((2 * cutoff + 1, side, side))
        fundamental[cutoff, 0, 0] = 1.0
        for scheme in PropagationScheme:
            values, vectors, rotation, _ = sector_spectrum(cutoff, 0, scheme)
            assert len(values) - even == cutoff * side * side
            assert np.all(rotation[:even, even:] == 0) and np.all(rotation[even:, :even] == 0)
            assert np.max(np.abs(vectors.T @ vectors - np.eye(len(values)))) <= 1e-13
            assert np.all((_coordinates(fundamental, True) @ vectors)[even:] == 0)

    @pytest.mark.parametrize("cutoff", [2, 3])
    def test_mirrored_inputs_give_mirrored_outputs(self, cutoff):
        # isotropic turbulence keeps l -> -l: the run of LG(l=-1) is the
        # reflection of the run of LG(l=+1); each occupies both halves
        basis, profile = ModeBasis(cutoff), TurbulenceProfile.from_constant(1e-15)
        mirror = [basis.position(LGIndex(l=-idx.l, r=idx.r)) for idx in basis.indices]
        for scheme in PropagationScheme:
            config = SolverConfig(cutoff=cutoff, scheme=scheme)
            plus, minus = (
                propagate(DensityMatrix.pure(basis, LGIndex(l=l, r=0)), profile, geometry(), config).matrix
                for l in (1, -1)
            )
            assert np.max(np.abs(minus[np.ix_(mirror, mirror)] - plus)) <= 1e-13

    @pytest.mark.parametrize("cutoff", range(1, 4))
    def test_split_matches_an_unsplit_run(self, cutoff, monkeypatch):
        # a random pure input occupies both halves of sector 0; the same
        # Lawson steps on the whole sector's eigendecomposition agree
        from turbulink import ipe

        profile, rho0 = TurbulenceProfile.from_constant(1e-15), coherent_state(ModeBasis(cutoff), seed=11)
        for scheme in PropagationScheme:
            config = SolverConfig(cutoff=cutoff, scheme=scheme)
            split = propagate(rho0, profile, geometry(), config).matrix
            with monkeypatch.context() as patch:
                patch.setattr(ipe, "sector_spectrum", unsplit_spectrum)
                whole = propagate(rho0, profile, geometry(), config).matrix
            assert np.max(np.abs(split - whole)) <= 1e-12 * np.max(np.abs(whole))


class TestLindbladForm:
    @pytest.mark.parametrize("cutoff", range(1, 5))
    def test_derivative_conserves_trace(self, cutoff):
        # d tr rho / dz = 0 for random Hermitian sector-0 states at every
        # node past the waist of a 30 km run, from the library's operators
        # alone; the Gouy commutator is traceless, so this holds whatever
        # the phase convention
        from turbulink.ipe import _blocks, _coordinates, generator_parts, rk4_nodes

        geom, side, count = geometry(), cutoff + 1, 2 * cutoff + 1
        z, cn2 = rk4_nodes(TurbulenceProfile.from_constant(1e-15), geom, 64)
        z_r = geom.rayleigh_range
        rates, gouy_rates = COUPLING_PREFACTOR * l_strength(z, cn2, LAM, W0), z_r / (z_r**2 + z**2)
        # A and C directly: through A's eigendecomposition the rounding of the
        # eigenvectors (about 1e-15 each, times eigenvalues up to ~100) leaks
        # up to 2.3e-13 of rate * |rho| into the trace at cutoffs 2-4; the
        # integrator's trace over a full link is pinned by test_full_link_trace
        operator, commutator = generator_parts(cutoff, 0, PropagationScheme.LINDBLAD_TRUNCATED)

        def derivative(k, x):
            return rates[k] * (operator @ x) + gouy_rates[k] * (commutator @ x)

        rng = np.random.default_rng(80 + cutoff)
        for k in range(1, len(z)):
            rho = rng.normal(size=(count, side, side)) + 1j * rng.normal(size=(count, side, side))
            rho = rho + rho.conj().transpose(0, 2, 1)
            slope = _blocks(derivative(k, _coordinates(rho, True)), count, side, True)
            trace = np.trace(slope, axis1=1, axis2=2).sum()
            assert abs(trace) <= 1e-13 * rates[k] * np.max(np.abs(rho))

    @pytest.mark.parametrize("cutoff", range(1, 7))
    def test_full_link_trace(self, cutoff):
        # through propagate, so every DensityMatrix check applies
        rho = fundamental_run(cutoff, 3.0e4, PropagationScheme.LINDBLAD_TRUNCATED)
        assert abs(rho.trace - 1.0) <= 1e-12

    @pytest.mark.parametrize("cutoff", range(1, 6))
    def test_schemes_bracket_at_full_link_lengths(self, cutoff):
        for distance in (1.0e3, 1.0e4, 3.0e4):
            exact, lindblad = (lowest_mode_probability(fundamental_run(cutoff, distance, s)) for s in PropagationScheme)
            assert exact <= lindblad + 1e-12


def fundamental_run(cutoff, distance, scheme):
    # from the fundamental at C_n^2 = 1e-15 with the default 256 steps
    rho0 = DensityMatrix.pure(ModeBasis(cutoff), LGIndex(l=0, r=0))
    config = SolverConfig(cutoff=cutoff, scheme=scheme)
    return propagate(rho0, TurbulenceProfile.from_constant(1e-15), geometry(distance), config)


class TestPropagation:
    def test_zero_turbulence_identity(self):
        profile = TurbulenceProfile.from_constant(0.0)
        geom = geometry()
        for scheme in PropagationScheme:
            basis = ModeBasis(1)
            rho0 = coherent_state(basis)
            config = SolverConfig(cutoff=1, scheme=scheme, steps=64)
            out = propagate(rho0, profile, geom, config)
            assert np.array_equal(out.matrix, rho0.matrix)

    def test_single_mode_matches_analytic_decay(self):
        profile = TurbulenceProfile.from_constant(1e-15)
        geom = geometry()
        rho0 = DensityMatrix.pure(ModeBasis(0), LGIndex(l=0, r=0))
        out = propagate(rho0, profile, geom, SolverConfig(cutoff=0, steps=256))
        assert lowest_mode_probability(out) == pytest.approx(
            analytic_decay(profile, geom), abs=1e-8
        )

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_matches_direct_superoperator_integration(self, cutoff):
        # the rotating-frame sector path against brute-force integration of
        # the dense generator, both schemes, through z ~ 1.8 z_R; a random
        # input occupies every sector, up to |Delta| = 4 at cutoff 2
        profile = TurbulenceProfile.from_constant(1e-16)
        geom = geometry()
        basis = ModeBasis(cutoff)
        size = basis.size
        rho0 = coherent_state(basis, seed=5)
        # the rotating-frame Lawson steps and the lab-frame RK4 differ by
        # O(h^4) times the fastest Gouy rotation: 1.9e-10 at cutoff 2 and 384
        # steps (Lindblad), 1.2e-11 at 768
        steps = 192 * cutoff
        for scheme in PropagationScheme:
            # raw integrator output, before the DensityMatrix checks: only the
            # integration itself is under test (the full-link trace and
            # bracket are pinned in TestLindbladForm)
            from turbulink.ipe import _propagate_fixed

            config = SolverConfig(cutoff=cutoff, scheme=scheme, steps=steps)
            fast_matrix = _propagate_fixed(rho0, profile, geom, config, steps)
            vec = rho0.matrix.reshape(-1).astype(complex)
            h = geom.path_length / steps
            z, r4 = 0.0, assemble_superoperator(basis, 0.0, profile, geom, scheme)
            for _ in range(steps):
                # each step starts where the last one ended
                r1 = r4
                r2 = assemble_superoperator(basis, z + 0.5 * h, profile, geom, scheme)
                r4 = assemble_superoperator(basis, z + h, profile, geom, scheme)
                k1 = r1 @ vec
                k2 = r2 @ (vec + 0.5 * h * k1)
                k3 = r2 @ (vec + 0.5 * h * k2)
                k4 = r4 @ (vec + h * k3)
                vec = vec + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                matrix = vec.reshape(size, size)
                vec = (0.5 * (matrix + matrix.conj().T)).reshape(-1)
                z += h
            direct = vec.reshape(size, size)
            assert np.max(np.abs(fast_matrix - direct)) < 2e-9

    def test_linearity(self):
        profile = TurbulenceProfile.from_constant(1e-15)
        geom = geometry()
        basis = ModeBasis(1)
        config = SolverConfig(cutoff=1, steps=64)
        rho1 = coherent_state(basis, seed=1)
        rho2 = coherent_state(basis, seed=2)
        alpha, beta = 0.3, 0.7
        mixed = DensityMatrix(basis=basis, matrix=alpha * rho1.matrix + beta * rho2.matrix)
        out_mixed = propagate(mixed, profile, geom, config)
        combo = alpha * propagate(rho1, profile, geom, config).matrix + beta * propagate(
            rho2, profile, geom, config
        ).matrix
        assert np.max(np.abs(out_mixed.matrix - combo)) < 1e-10

    def test_fundamental_population_monotone_under_exact_truncation(self):
        profile = TurbulenceProfile.from_constant(1e-15)
        basis = ModeBasis(1)
        rho0 = DensityMatrix.pure(basis, LGIndex(l=0, r=0))
        populations = []
        for distance in np.linspace(1.0e3, 3.0e4, 16):
            out = propagate(rho0, profile, geometry(distance=distance), SolverConfig(cutoff=1, steps=64))
            populations.append(lowest_mode_probability(out))
        assert np.all(np.diff(populations) < 0)

    def test_hermitian_positive_at_checkpoints(self):
        profile = TurbulenceProfile.from_constant(1e-15)
        basis = ModeBasis(1)
        rho0 = coherent_state(basis, seed=9)
        for distance in np.linspace(2.0e3, 3.0e4, 8):
            out = propagate(rho0, profile, geometry(distance=distance), SolverConfig(cutoff=1, steps=64))
            deviation = np.max(np.abs(out.matrix - out.matrix.conj().T))
            assert deviation < 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9
            assert out.trace <= 1.0 + 1e-6

    def test_convergence_flag_passes_when_smooth(self):
        profile = TurbulenceProfile.from_constant(1e-16)
        geom = geometry()
        rho0 = DensityMatrix.pure(ModeBasis(0), LGIndex(l=0, r=0))
        config = SolverConfig(cutoff=0, steps=64, check_convergence=True)
        out = propagate(rho0, profile, geom, config)
        assert lowest_mode_probability(out) == pytest.approx(analytic_decay(profile, geom), abs=1e-7)

    def test_convergence_flag_raises_on_coarse_stiff_run(self):
        # 16 steps over 30 km leave the stepped Gouy part of the truncated
        # exact scheme too coarse: the traces at 16 and 32 steps differ by
        # 2.8e-7 at cutoff 1 (the Lindblad form conserves the trace exactly)
        profile = TurbulenceProfile.from_constant(1e-15)
        geom = geometry()
        rho0 = DensityMatrix.pure(ModeBasis(1), LGIndex(l=0, r=0))
        config = SolverConfig(cutoff=1, steps=16, check_convergence=True)
        with pytest.raises(SolverError) as err:
            propagate(rho0, profile, geom, config)
        assert err.value.coarse != err.value.fine

    def test_fundamental_at_coupling_limit_in_one_gib(self):
        # from the fundamental only sector 0 is propagated, so the largest
        # accepted cutoff runs in a child capped at 1 GiB of address space
        # (the whole-basis generator alone would need 1.1 GB)
        code = textwrap.dedent(
            f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from turbulink.ipe import DensityMatrix, SolverConfig, propagate
            from turbulink.lgmodes import LGIndex, ModeBasis
            from turbulink.turbulence import LinkGeometry, TurbulenceProfile

            geom = LinkGeometry(3.0e4, 19.0, 19.0, {W0!r}, {LAM!r})
            rho0 = DensityMatrix.pure(ModeBasis({MAX_COUPLING_CUTOFF}), LGIndex(l=0, r=0))
            config = SolverConfig(cutoff={MAX_COUPLING_CUTOFF})
            rho = propagate(rho0, TurbulenceProfile.from_constant(1e-15), geom, config)
            assert type(rho) is DensityMatrix and rho.basis.cutoff == {MAX_COUPLING_CUTOFF}
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("length, steps", [(4896.6, 256), (16782.6, 128), (16782.6, 256)])
    def test_tabulated_profile_at_any_link_length(self, length, steps):
        # accumulating z += h put the last RK4 node a few ulps past the path
        # end at these lengths, where the chord height is undefined
        profile = TurbulenceProfile.from_table([(2.0, 1e-15), (50.0, 1e-16), (500.0, 1e-17)])
        rho0 = DensityMatrix.pure(ModeBasis(1), LGIndex(l=0, r=0))
        rho = propagate(rho0, profile, geometry(length), SolverConfig(cutoff=1, steps=steps))
        assert 0.0 < lowest_mode_probability(rho) < 1.0

    def test_rk4_nodes_stay_on_the_path(self):
        # the half-step nodes of a fixed-step run end exactly at the path
        # length, so a tabulated profile can be read on every one of them
        from turbulink.ipe import rk4_nodes

        profile = TurbulenceProfile.from_table([(2.0, 1e-15), (50.0, 1e-16), (500.0, 1e-17)])
        rng = np.random.default_rng(11)
        for length in rng.uniform(1.0e3, 3.0e4, 300):
            geom = geometry(float(length))
            for steps in (16, 17, 128, 256, 512):
                z, cn2 = rk4_nodes(profile, geom, steps)
                assert len(z) == 2 * steps + 1
                assert np.array_equal(z, np.linspace(0.0, geom.path_length, 2 * steps + 1))
                assert z[0] == 0.0 and z[-1] == geom.path_length
                assert np.all(np.diff(z) > 0) and np.all(cn2 > 0)

    @pytest.mark.parametrize("scheme", list(PropagationScheme), ids=lambda scheme: scheme.value)
    @pytest.mark.parametrize("cutoff", [1, 3])
    def test_stiff_tabulated_run_converges(self, cutoff, scheme):
        # h * max rate * rho(A) is 4.1-15 here, past explicit RK4's real-axis
        # limit (its run overflowed); every Lawson factor is at most 1, so
        # the run stays finite and converged
        profile = TurbulenceProfile.from_table([(5.0, 3e-14), (60.0, 4e-15), (400.0, 5e-16), (2000.0, 6e-17)])
        rho0 = DensityMatrix.pure(ModeBasis(cutoff), LGIndex(l=0, r=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = propagate(rho0, profile, geometry(), SolverConfig(cutoff=cutoff, scheme=scheme, steps=256))
        fine = propagate(rho0, profile, geometry(), SolverConfig(cutoff=cutoff, scheme=scheme, steps=4096))
        assert np.max(np.abs(rho.matrix - fine.matrix)) <= 1e-8

    def test_stiff_run_passes_step_doubling(self):
        # 16 steps across a decay exponent of ~200 (h * rate * rho(A) = 8.6)
        rho0 = DensityMatrix.pure(ModeBasis(0), LGIndex(l=0, r=0))
        profile = TurbulenceProfile.from_constant(1e-14)
        config = SolverConfig(cutoff=0, steps=16, check_convergence=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = propagate(rho0, profile, geometry(), config)
        fine = propagate(rho0, profile, geometry(), SolverConfig(cutoff=0, steps=4096))
        assert np.max(np.abs(rho.matrix - fine.matrix)) <= 1e-8
        assert lowest_mode_probability(rho) == pytest.approx(analytic_decay(profile, geometry()), rel=1e-6)

    @pytest.mark.parametrize("scheme", ["lindblad_truncated", "truncated_exact", "nonsense", None, 1])
    def test_scheme_must_be_a_member(self, scheme):
        # a string used to run as TRUNCATED_EXACT, whatever it said, and to
        # add its own sector_spectrum entries
        from turbulink.ipe import generator_parts, sector_spectrum

        entries = sector_spectrum.cache_info().currsize
        message = f"^scheme must be a PropagationScheme member, not {scheme!r}$"
        for call in (lambda: SolverConfig(cutoff=2, scheme=scheme), lambda: sector_spectrum(1, 0, scheme),
                     lambda: generator_parts(1, 1, scheme)):
            with pytest.raises(ValueError, match=message):
                call()
        assert sector_spectrum.cache_info().currsize == entries

    def test_delta_beyond_the_basis_refused(self):
        from turbulink.ipe import generator_parts, sector_spectrum

        for call in (lambda: sector_spectrum(1, 5, PropagationScheme.TRUNCATED_EXACT),
                     lambda: generator_parts(0, 1, PropagationScheme.LINDBLAD_TRUNCATED)):
            with pytest.raises(ValueError, match="^delta must lie in"):
                call()

    def test_basis_mismatch_rejected(self):
        rho0 = DensityMatrix.pure(ModeBasis(1), LGIndex(l=0, r=0))
        with pytest.raises(ValueError):
            propagate(
                rho0,
                TurbulenceProfile.from_constant(1e-16),
                geometry(),
                SolverConfig(cutoff=2),
            )


class TestDensityMatrix:
    def test_pure_state(self):
        basis = ModeBasis(1)
        rho = DensityMatrix.pure(basis, LGIndex(l=1, r=0))
        assert rho.trace == pytest.approx(1.0)
        assert lowest_mode_probability(rho) == 0.0

    def test_rejects_non_hermitian(self):
        basis = ModeBasis(0)
        with pytest.raises(ValueError):
            DensityMatrix(basis=basis, matrix=np.array([[1j]], dtype=complex))

    @pytest.mark.parametrize("entry", [math.nan, complex(0.5, math.nan)])
    def test_rejects_nan(self, entry):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(basis=ModeBasis(0), matrix=np.array([[entry]], dtype=complex))

    def test_rejects_a_list(self):
        with pytest.raises(ValueError, match="matrix"):
            DensityMatrix(basis=ModeBasis(0), matrix=[[1.0]])

    def test_rejects_trace_above_one(self):
        basis = ModeBasis(0)
        with pytest.raises(ValueError):
            DensityMatrix(basis=basis, matrix=np.array([[1.1]], dtype=complex))

    def test_rejects_negative_eigenvalues(self):
        basis = ModeBasis(1)
        matrix = np.zeros((6, 6), dtype=complex)
        matrix[0, 0], matrix[1, 1] = 0.6, -0.1
        with pytest.raises(ValueError):
            DensityMatrix(basis=basis, matrix=matrix)

    def test_step_count_guard(self):
        with pytest.raises(ValueError):
            SolverConfig(steps=8)

    @pytest.mark.parametrize("field, value", [("steps", 256.0), ("cutoff", 1.0), ("steps", True), ("cutoff", False)])
    def test_integer_settings_only(self, field, value):
        # a float or bool step count or cutoff used to fail deep inside propagate
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


class TestAnalyticDecay:
    def test_short_link_limit(self):
        profile = TurbulenceProfile.from_constant(1e-16)
        assert analytic_decay(profile, geometry(distance=0.01)) == pytest.approx(1.0, abs=1e-6)

    def test_peak_waist_near_paper_optimum(self):
        profile = TurbulenceProfile.from_constant(1e-16)
        waists = np.linspace(0.05, 0.35, 121)
        values = [analytic_decay(profile, geometry(waist=w)) for w in waists]
        best = waists[int(np.argmax(values))]
        assert best == pytest.approx(0.1457, rel=0.05)

    def test_fried_parameter_form_in_near_field(self):
        # z much shorter than the Rayleigh range: P = exp(-3.25 (w0/r0)^{5/3})
        profile = TurbulenceProfile.from_constant(1e-14)
        geom = geometry(distance=1.0e3)
        value = analytic_decay(profile, geom)
        r0 = fried_parameter(LAM, 1e-14, 1.0e3)
        prediction = math.exp(-3.25 * (W0 / r0) ** (5.0 / 3.0))
        assert value == pytest.approx(prediction, rel=5e-3)

    def test_extinction_hook(self):
        profile = TurbulenceProfile.from_constant(0.0)
        geom = geometry()
        assert analytic_decay(profile, geom, extinction_per_km=0.1) == pytest.approx(
            math.exp(-0.1 * 30.0), rel=1e-12
        )

    @pytest.mark.parametrize("extinction", [-1.0, math.nan, math.inf])
    def test_extinction_refused(self, extinction):
        # -1/km used to give a survival probability of 5.0e12
        with pytest.raises(ValueError, match="extinction_per_km"):
            analytic_decay(TurbulenceProfile.from_constant(1e-16), geometry(), extinction_per_km=extinction)


class TestCutoffBracketing:
    def test_families_bracket_and_converge(self):
        l_values = np.linspace(0.0, 0.1, 6)
        results = cutoff_bracketing(l_values, range(4))
        exact = {n: results[(PropagationScheme.TRUNCATED_EXACT, n)] for n in range(4)}
        lindblad = {n: results[(PropagationScheme.LINDBLAD_TRUNCATED, n)] for n in range(4)}
        assert exact[0] == pytest.approx(np.exp(-DECAY_CONSTANT * l_values), abs=1e-6)
        assert lindblad[0] == pytest.approx(np.ones_like(l_values), abs=1e-12)
        for n in range(3):
            assert np.all(exact[n + 1] >= exact[n] - 1e-12)
            assert np.all(lindblad[n + 1] <= lindblad[n] + 1e-12)
        for n in range(4):
            assert np.all(exact[n] <= lindblad[n] + 1e-12)

    def test_against_matrix_exponential(self):
        # constant generator: the fundamental entry of expm of the lab-frame
        # dense oracle, gain0 - (Q x I + I x conj(Q)) / 2 with Q = Gamma0^T
        # for the Lindblad form
        from scipy.linalg import expm

        l_values = [0.01, 0.1, 1.0, 10.0]
        results = cutoff_bracketing(l_values, range(3))
        for cutoff in range(3):
            basis = ModeBasis(cutoff)
            size = basis.size
            gain0, gamma0 = dense_generator(cutoff)
            q, eye = gamma0.T, np.eye(size)
            operators = {
                PropagationScheme.TRUNCATED_EXACT: gain0,
                PropagationScheme.LINDBLAD_TRUNCATED: gain0 - 0.5 * (np.kron(q, eye) + np.kron(eye, np.conj(q))),
            }
            entry = basis.fundamental * (size + 1)
            for scheme, operator in operators.items():
                exact = [expm(COUPLING_PREFACTOR * l * operator)[entry, entry].real for l in l_values]
                assert results[(scheme, cutoff)] == pytest.approx(exact, rel=0, abs=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cutoff_bracketing([0.1, 0.05], [1])
        with pytest.raises(ValueError, match="nonempty"):
            cutoff_bracketing([], [1])
        # [0, nan] used to give NaN populations and [0, inf] a Lindblad population of +inf
        for last in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                cutoff_bracketing([0.0, last], [1])

    @pytest.mark.parametrize("cutoff", [True, 1.0, 1.5, -1, "1"])
    def test_cutoffs_must_be_non_negative_ints(self, cutoff):
        # with cutoff 1 cached, True and 1.0 used to return cutoff-1 results
        # keyed by them; in a fresh process True and 1.5 failed inside range
        cutoff_bracketing([0.0, 0.1], [1])
        with pytest.raises(ValueError, match="^each cutoff must be a non-negative int"):
            cutoff_bracketing([0.0, 0.1], [0, cutoff])


class TestDistanceSweep:
    def test_orderings(self):
        rows = distance_sweep(
            [1e-17, 1e-16, 1e-15, 1e-14, 1e-13],
            [1.0e3, 1.0e4, 3.0e4],
            LAM,
        )
        by_key = {(r["cn2"], r["distance_m"]): r["probability"] for r in rows}
        # weak turbulence, short link: near-lossless
        assert by_key[(1e-17, 1.0e3)] > 0.99
        # fixed distance: probability falls as turbulence strengthens
        for distance in (1.0e3, 1.0e4, 3.0e4):
            family = [by_key[(cn2, distance)] for cn2 in (1e-13, 1e-14, 1e-15, 1e-16, 1e-17)]
            assert np.all(np.diff(family) > 0)
        # fixed turbulence: probability falls with distance
        for cn2 in (1e-13, 1e-15, 1e-17):
            curve = [by_key[(cn2, d)] for d in (1.0e3, 1.0e4, 3.0e4)]
            assert np.all(np.diff(curve) < 0)

    def test_half_probability_range_grows_in_weak_turbulence(self):
        # the distance at which the survival drops through one half moves
        # out monotonically as the turbulence weakens
        distances = list(np.geomspace(3e2, 3e5, 40))
        rows = distance_sweep([1e-13, 1e-14, 1e-15, 1e-16], distances, LAM)
        crossing = {}
        for cn2 in (1e-13, 1e-14, 1e-15, 1e-16):
            curve = [(r["distance_m"], r["probability"]) for r in rows if r["cn2"] == cn2]
            crossing[cn2] = next(d for d, p in curve if p < 0.5)
        assert crossing[1e-13] < crossing[1e-14] < crossing[1e-15] < crossing[1e-16]

    def test_rows_sorted(self):
        rows = distance_sweep([1e-15, 1e-16], [2.0e4, 1.0e4], LAM)
        keys = [(r["cn2"], r["distance_m"]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("distance", [-1.0, 0.0, math.nan, math.inf])
    def test_distances_must_be_positive_and_finite(self, distance):
        # -1 m used to fail with "math domain error"
        with pytest.raises(ValueError, match="^distances must be positive and finite"):
            distance_sweep([1e-15], [1.0e3, distance], LAM)

    @pytest.mark.parametrize("extinction", [-0.5, math.nan])
    def test_extinction_refused(self, extinction):
        # -0.5/km used to give a probability of 1.65, NaN a NaN one
        with pytest.raises(ValueError, match="extinction_per_km"):
            distance_sweep([1e-15], [1.0e3], LAM, extinction_per_km=extinction)
