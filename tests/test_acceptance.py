"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criterion 7's monotonicity clause fails by design of the turbulence-only
model (see the repository notes); every other criterion passes.
"""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from quadrature_oracle import _log_radial_grid, c_coefficients, coupling_numeric_oracle, free_prop_S_numeric

import turbulink
from turbulink.entanglement import robustness_scan
from turbulink.ipe import (
    DECAY_CONSTANT,
    DensityMatrix,
    PropagationScheme,
    SolverConfig,
    analytic_decay,
    cutoff_bracketing,
    lowest_mode_probability,
    propagate,
)
from turbulink.lgmodes import LGIndex, ModeBasis, coupling_tensor, free_prop_S
from turbulink.schmidt import schmidt_eigenvalue, truncated_source
from turbulink.temporal import channel_kernel, mode_trace, transmission_matrix
from turbulink.turbulence import (
    SPECTRUM_AMPLITUDE,
    LinkGeometry,
    TurbulenceProfile,
    TOTAL_RATE_CONSTANT,
)

W0 = 0.1457
LAM = 3.95e-6
Z_R = math.pi * W0**2 / LAM

PAPER_MATRIX = np.array(
    [
        [0.9838, 0.0161, 0.0000, 0.0000],
        [0.0152, 0.9538, 0.0307, 0.0003],
        [0.0001, 0.0289, 0.9266, 0.0438],
        [0.0000, 0.0003, 0.0414, 0.9018],
    ]
)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_schmidt_numbers(paper_spec):
    values = np.array([schmidt_eigenvalue(paper_spec, n) for n in range(4)])
    target = np.array([0.395, 0.239, 0.145, 0.087])
    source = truncated_source(paper_spec, 3)
    ok_eigen = bool(np.all(np.abs(values - target) <= 1e-3))
    ok_mass = abs(source.discarded_mass - 0.134) <= 1e-3
    ok = report(
        1, "schmidt numbers", ok_eigen and ok_mass,
        f"eigenvalues {np.round(values, 4)}, discarded {100 * source.discarded_mass:.2f}%",
    )
    assert ok


def test_criterion_2_constants():
    decay = 8.1 * math.gamma(-5.0 / 6.0)
    fried = 3.25 / 0.185 ** (5.0 / 3.0)
    ok = (-54.2 <= decay <= -54.0) and (54.0 <= fried <= 54.3)
    assert report(2, "constant reproduction", ok, f"8.1*Gamma(-5/6)={decay:.4f}, 3.25/0.185^(5/3)={fried:.4f}")


def _batch_oracle(basis, t, cn2, kappa_0):
    """All coupling integrals over the basis at one outer scale, on the same
    quadrature grid as coupling_numeric_oracle (vectorized across tuples)."""
    z = t * Z_R
    a = (1.0 + t * t) * W0**2
    size = basis.size
    pair_coeffs = []
    for m in basis.indices:
        for u in basis.indices:
            pair_coeffs.append(c_coefficients(m, u, t))
    width = max(len(c) for c in pair_coeffs)
    stacked = np.zeros((size * size, width), dtype=complex)
    for row, values in enumerate(pair_coeffs):
        stacked[row, : len(values)] = values

    K, weights = _log_radial_grid(kappa_0 * 1e-3, 60.0 / math.sqrt(a))
    x0 = K * K * a / 8.0
    powers = x0[None, :] ** (0.5 * np.arange(width)[:, None])  # (j, node)
    radial_values = stacked @ powers  # (pair, node)
    spectral = weights * K * K * (K * K + kappa_0**2) ** (-11.0 / 6.0)
    core = spectral * np.exp(-2.0 * x0)
    cross = (radial_values * core[None, :]) @ np.conj(radial_values).T  # (pair1, pair2)

    k = 2.0 * math.pi / LAM
    psd_scale = SPECTRUM_AMPLITUDE * (2.0 * math.pi) ** 3 * cn2
    scale = k * k * psd_scale * (2.0 * math.pi) / (4.0 * math.pi**2)
    return scale * cross, scale * float(spectral.sum())


def test_criterion_3_oracle_equivalence(paper_spec):
    cn2 = 1e-15
    basis = ModeBasis(2)
    size = basis.size
    kappa_0 = 1e-4 / W0
    ratio = 2.0 ** (1.0 / 3.0)
    ls = np.array([idx.l for idx in basis.indices])
    worst = 0.0
    checked = 0
    for t in (0.0, 1.0):
        closed = coupling_tensor(basis, t * Z_R, cn2, W0, LAM).entries
        la, lt_a = _batch_oracle(basis, t, cn2, kappa_0)
        lb, lt_b = _batch_oracle(basis, t, cn2, kappa_0 / 2.0)
        # spot-tie the batch to the per-tuple operation
        i00 = basis.fundamental
        single, single_lt = coupling_numeric_oracle(
            LGIndex(l=0, r=0), LGIndex(l=0, r=0), LGIndex(l=0, r=0), LGIndex(l=0, r=0),
            t * Z_R, cn2, W0, LAM, kappa_0,
        )
        assert abs(la[i00 * size + i00, i00 * size + i00] + 0.0) - abs(single) < 1e-12 * abs(single) + 1e-25
        assert abs(lt_a - single_lt) < 1e-9 * single_lt

        scale = abs(closed[i00, i00, i00, i00])
        for a, m in enumerate(basis.indices):
            for c, u in enumerate(basis.indices):
                pair1 = a * size + c
                for b, n in enumerate(basis.indices):
                    for d, v in enumerate(basis.indices):
                        if ls[a] - ls[c] != ls[b] - ls[d]:
                            continue
                        pair2 = b * size + d
                        va = la[pair1, pair2]
                        vb = lb[pair1, pair2]
                        if m == u and n == v:
                            va -= lt_a
                            vb -= lt_b
                        oracle = (ratio * vb - va) / (ratio - 1.0)
                        reference = closed[a, b, c, d]
                        diff = abs(oracle - reference)
                        rel = diff / max(abs(reference), 1e-4 * scale)
                        worst = max(worst, rel)
                        checked += 1
    ok_tuples = worst <= 5e-3

    rate_constant_error = abs(TOTAL_RATE_CONSTANT - 30.86) / 30.86
    ok_rate = rate_constant_error <= 5e-4

    worst_s = 0.0
    for m, u in itertools.product(basis.indices, basis.indices):
        diff = abs(free_prop_S(m, u, Z_R) - free_prop_S_numeric(m, u, Z_R, W0)) * Z_R
        worst_s = max(worst_s, diff)
    ok_free = worst_s <= 1e-6

    ok = report(
        3, "oracle equivalence", ok_tuples and ok_rate and ok_free,
        f"{checked} tuples worst rel {worst:.2e}; rate constant err {rate_constant_error:.1e}; "
        f"free-prop worst {worst_s:.1e}",
    )
    assert ok


def test_criterion_4_peak_waist():
    profile = TurbulenceProfile.from_constant(1e-16)
    waists = np.linspace(0.06, 0.30, 121)
    probabilities = []
    for waist in waists:
        geom = LinkGeometry(
            path_length=3.0e4, transmitter_height=19.0, receiver_height=19.0,
            waist=waist, wavelength=LAM,
        )
        probabilities.append(analytic_decay(profile, geom))
    best = float(waists[int(np.argmax(probabilities))])
    ok = abs(best - 0.1457) / 0.1457 <= 0.05
    assert report(4, "peak waist", ok, f"argmax {100 * best:.2f} cm vs 14.57 cm")


def test_criterion_5_cutoff_bracketing():
    l_values = np.linspace(0.0, 0.1, 11)
    results = cutoff_bracketing(l_values, range(6))
    exact = {n: results[(PropagationScheme.TRUNCATED_EXACT, n)] for n in range(6)}
    lindblad = {n: results[(PropagationScheme.LINDBLAD_TRUNCATED, n)] for n in range(6)}
    ok_exact = all(np.all(exact[n + 1] >= exact[n] - 1e-12) for n in range(5))
    ok_lind = all(np.all(lindblad[n + 1] <= lindblad[n] + 1e-12) for n in range(5))
    ok_bracket = all(np.all(exact[n] <= lindblad[n] + 1e-12) for n in range(6))
    gap_1 = float(np.max(lindblad[1] - exact[1]))
    gap_5 = float(np.max(lindblad[5] - exact[5]))
    ok_gap = gap_5 < gap_1
    ok = report(
        5, "cutoff bracketing", ok_exact and ok_lind and ok_bracket and ok_gap,
        f"families ordered; gap N=1 {gap_1:.4f} -> N=5 {gap_5:.4f}",
    )
    assert ok


def test_criterion_6_transmission_matrix(paper_spec, kernel_1e15, paper_geometry):
    tm = transmission_matrix(kernel_1e15, paper_spec, 3)
    deviation = float(np.max(np.abs(tm.matrix - PAPER_MATRIX)))
    ok_match = deviation <= 0.02
    ok_far = all(
        tm.matrix[n, m] < 0.05
        for n in range(4)
        for m in range(4)
        if abs(n - m) >= 2
    )
    coarse_kernel = channel_kernel(
        paper_spec, TurbulenceProfile.from_constant(1e-15), paper_geometry, grid_order=32
    )
    refined = transmission_matrix(coarse_kernel, paper_spec, 3)
    stability = float(np.max(np.abs(tm.matrix - refined.matrix)))
    ok_grid = stability < 1e-4
    ok = report(
        6, "transmission matrix", ok_match and ok_far and ok_grid,
        f"max |S - paper| {deviation:.4f}; grid-doubling drift {stability:.1e}",
    )
    assert ok


def test_criterion_7_mode_traces(paper_spec, kernel_1e15):
    traces = np.array([mode_trace(kernel_1e15, paper_spec, n) for n in range(11)])
    ok_loss = bool(np.all(traces > 1e-4))
    ok_monotone = bool(np.all(np.diff(traces) <= 0))
    report(
        7, "mode traces", ok_loss and ok_monotone,
        f"min T {traces.min():.3e} (>1e-4: {ok_loss}); "
        f"monotone non-increasing: {ok_monotone} "
        f"(turbulence-only traces rise with n at this depth; see notes)",
    )
    assert ok_loss
    assert ok_monotone, (
        "T_n increases with n at C_n^2 = 1e-15: the exponential convexity of "
        "the decay across the band rewards the low-frequency wing; the "
        "declining reference figure includes out-of-scope wavelength-dependent "
        "extinction"
    )


def test_criterion_8_entanglement_robustness(paper_spec, kernel_1e16, kernel_zero):
    rows = robustness_scan(kernel_1e16, paper_spec, 0, range(11), dim=12)
    distant = [r for r in rows if not r.degenerate and abs(r.n) > 1]
    ok_distant = all(abs(r.en_final - 1.0) < 0.05 for r in distant)
    drops = {r.n: r.en_initial - r.en_final for r in rows if not r.degenerate}
    neighbor_drop = drops.pop(1)
    ok_neighbor = all(neighbor_drop > d for d in drops.values())

    from turbulink.entanglement import TwoPhotonState, fidelity_to_input, propagate_pair

    state = TwoPhotonState.mode_pair(0, 3, 12)
    rho, _ = propagate_pair(state, kernel_zero, paper_spec)
    fidelity = fidelity_to_input(rho, state)
    ok_fidelity = abs(fidelity - 1.0) < 1e-10
    ok = report(
        8, "entanglement robustness", ok_distant and ok_neighbor and ok_fidelity,
        f"max distant |EN-1| {max(abs(r.en_final - 1.0) for r in distant):.4f}; "
        f"neighbor drop {neighbor_drop:.2e} dominates; zero-turb fidelity {fidelity:.2e}",
    )
    assert ok


def test_criterion_9_property_suites(tmp_path, paper_spec):
    from turbulink.cli import main

    profile = TurbulenceProfile.from_constant(1e-15)
    basis = ModeBasis(1)
    rng = np.random.default_rng(17)
    vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    vec /= np.linalg.norm(vec)
    rho0 = DensityMatrix(basis=basis, matrix=np.outer(vec, vec.conj()))

    # Hermiticity / positivity at 8 checkpoints along the paper path
    ok_state = True
    for distance in np.linspace(2.0e3, 3.0e4, 8):
        geom = LinkGeometry(
            path_length=float(distance), transmitter_height=19.0,
            receiver_height=19.0, waist=W0, wavelength=LAM,
        )
        out = propagate(rho0, profile, geom, SolverConfig(cutoff=1, steps=64))
        hermitian = np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
        positive = np.linalg.eigvalsh(out.matrix)[0] > -1e-9
        ok_state = ok_state and hermitian and positive

    # single-mode solver equals the closed-form decay
    geom = LinkGeometry(
        path_length=3.0e4, transmitter_height=19.0, receiver_height=19.0,
        waist=W0, wavelength=LAM,
    )
    single = DensityMatrix.pure(ModeBasis(0), LGIndex(l=0, r=0))
    solved = lowest_mode_probability(propagate(single, profile, geom, SolverConfig(cutoff=0)))
    ok_decay = abs(solved - analytic_decay(profile, geom)) <= 1e-8

    # linearity of the propagation map
    vec2 = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    vec2 /= np.linalg.norm(vec2)
    rho1 = DensityMatrix(basis=basis, matrix=np.outer(vec2, vec2.conj()))
    config = SolverConfig(cutoff=1, steps=64)
    mixed = DensityMatrix(basis=basis, matrix=0.4 * rho0.matrix + 0.6 * rho1.matrix)
    combo = (
        0.4 * propagate(rho0, profile, geom, config).matrix
        + 0.6 * propagate(rho1, profile, geom, config).matrix
    )
    ok_linear = np.max(np.abs(propagate(mixed, profile, geom, config).matrix - combo)) <= 1e-10

    # sweep determinism across worker counts
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(
        "[turbulence]\ncn2 = 1e-15\n\n[sweep]\naxes = [\"waist_m\"]\n"
        "waist_m = [0.1, 0.1457, 0.2]\n"
    )
    payloads = []
    for threads, sub in (("1", "one"), ("4", "four")):
        out_dir = tmp_path / sub
        code = main([
            "--config", str(config_path), "--set", f"output_dir={out_dir}",
            "--threads", threads, "sweep", "beam",
        ])
        assert code == 0
        payloads.append((out_dir / "sweep_beam.csv").read_bytes())
    ok_determinism = payloads[0] == payloads[1]

    ok = report(
        9, "property suites", ok_state and ok_decay and ok_linear and ok_determinism,
        f"states valid {ok_state}; N=0 vs analytic {ok_decay}; linearity {ok_linear}; "
        f"sweep determinism {ok_determinism}",
    )
    assert ok


def test_each_test_module_names_what_it_checks():
    # tests/ mirrors src/: test_<name>.py checks the library module <name>,
    # the oracle module tests/<name>.py, or (test_acceptance) the criteria;
    # a test module named after deleted code fails here
    tests, library = Path(__file__).parent, Path(turbulink.__file__).parent
    for path in sorted(tests.glob("test_*.py")):
        name = path.stem.removeprefix("test_")
        oracle = name.endswith("_oracle") and (tests / f"{name}.py").is_file()
        assert (library / f"{name}.py").is_file() or oracle or name == "acceptance", path.name
