"""Command-line interface: subcommand dispatch, sweeps, CSV emission.

    turbulink <subcommand> [--config FILE] [--set key=value ...] [options]

Subcommands: schmidt, beam, coupling, kernel, tmatrix, entangle, validate,
and sweep.  Each subcommand has one runner, which returns the value a sweep
point reports (or a function for it, where only a sweep reads it) and a
function that writes the subcommand's own outputs; sweep calls the runner
at each point of the config's sweep axes.
The TURBULINK_CONFIG environment variable supplies the default config path.

Importing this module loads only config, schmidt, temporal and turbulence;
each runner imports the other modules it calls (lgmodes, ipe, entanglement)
when it runs, and sweep imports its thread pool only when it starts one.

Exit codes: 0 success, 1 configuration or usage error (also an output file
that cannot be written), 2 numeric failure.

All CSV bodies are deterministic for a fixed config (no timestamps; csv.writer
renders floats as their shortest round-trip repr); sweep output is assembled
in sorted axis order after all points finish, so it does not depend on the
worker count.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import schmidt, temporal, turbulence
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config,
    validate_config,
)
from .temporal import KernelFidelity
from .turbulence import TRAD_S

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _kernel(config: RunConfig) -> temporal.ChannelKernel:
    return temporal.channel_kernel(
        config.spec,
        config.profile(),
        config.geometry,
        grid_order=config.grid_order,
        fidelity=KernelFidelity(config.kernel_fidelity),
        cutoff=config.cutoff,
        extinction_per_km=config.extinction_per_km,
        steps=config.steps,
    )


def _write_csv(config: RunConfig, name: str, header: str, rows) -> None:
    """Write `name` under output_dir; an OSError becomes a ConfigError on output_dir."""
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        with open(os.path.join(config.output_dir, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(header + "\n")
            csv.writer(handle, lineterminator="\n").writerows(rows)
    except OSError as exc:
        raise ConfigError(f"value for 'output_dir' unusable: {exc}") from None


def run_schmidt(config: RunConfig):
    """The truncation's discarded mass; `write` prints and writes the spectrum."""
    spec = config.spec
    source = schmidt.truncated_source(spec, config.max_mode)

    def write(out):
        rows = [
            (n, schmidt.schmidt_eigenvalue(spec, n), float(source.weights[n]))
            for n in range(config.max_mode + 1)
        ]
        _write_csv(config, "schmidt.csv", "n,eigenvalue,weight", rows)
        print("n,eigenvalue,weight", file=out)
        for n, lam, weight in rows:
            print(f"{n},{lam:.6f},{weight:.6f}", file=out)
        print(f"schmidt_number,{schmidt.schmidt_number(spec):.6f}", file=out)
        print(f"discarded_mass_percent,{100.0 * source.discarded_mass:.4f}", file=out)
        print(f"norm_prefactor,{source.norm_prefactor:.6f}", file=out)
        print(f"probability_prefactor,{1.0 / (1.0 - source.discarded_mass):.6f}", file=out)

    return source.discarded_mass, write


def run_beam(config: RunConfig):
    """A function for the configured link's pure-decay probability, which
    only a sweep reads; `write` tabulates the C_n^2 family over the distance
    axis (or the default grid), not the configured profile."""
    from . import ipe

    def probability():
        return ipe.analytic_decay(config.profile(), config.geometry, extinction_per_km=config.extinction_per_km)

    def write(out):
        if "distance_m" in config.sweep_axes:
            distances = list(config.sweep_values[config.sweep_axes.index("distance_m")])
        else:
            distances = list(np.geomspace(1e3, 1e5, 25))
        rows = ipe.distance_sweep(
            [1e-13, 1e-14, 1e-15, 1e-16, 1e-17],
            distances,
            config.wavelength_m,
            transmitter_height=config.transmitter_height_m,
            receiver_height=config.receiver_height_m,
            extinction_per_km=config.extinction_per_km,
        )
        keys = ("cn2", "distance_m", "waist_m", "l_integral", "probability")
        _write_csv(
            config,
            "beam.csv",
            "cn2_m^-2/3,distance_m,waist_m,l_integral,probability",
            [tuple(r[key] for key in keys) for r in rows],
        )
        print(f"wrote {len(rows)} rows to beam.csv", file=out)

    return probability, write


def _coupling(config: RunConfig, cutoff: int):
    from . import lgmodes

    return lgmodes.coupling_tensor(
        lgmodes.ModeBasis(cutoff), config.distance_m, config.cn2, config.waist_m, config.wavelength_m
    )


def run_coupling(config: RunConfig):
    """The basis-0 fundamental entry; `write` dumps every nonzero entry of
    the basis at min(cutoff, 2)."""
    fundamental = _coupling(config, 0).entries[0, 0, 0, 0].real

    def write(out):
        tensor = _coupling(config, min(config.cutoff, 2))
        indices = [(index.l, index.r) for index in tensor.basis.indices]
        nonzero = np.nonzero(tensor.entries)  # in C order, (a, b, c, d) = (m, n, u, v)
        values = tensor.entries[nonzero]
        rows = [
            (*indices[a], *indices[b], *indices[c], *indices[d], real, imag)
            for a, b, c, d, real, imag in zip(*(n.tolist() for n in nonzero), values.real.tolist(), values.imag.tolist())
        ]
        _write_csv(config, "coupling.csv", "lm,rm,ln,rn,lu,ru,lv,rv,re,im", rows)
        print(f"wrote {len(rows)} nonzero tensor entries to coupling.csv", file=out)

    return fundamental, write


def run_kernel(config: RunConfig):
    """The kernel at the grid's central pair; `write` samples the surface."""
    kernel = _kernel(config)
    mid = kernel.order // 2

    def write(out):
        omegas, matrix = (kernel.omegas / TRAD_S).tolist(), kernel.matrix.tolist()
        rows = [(w1, w2, p) for w1, row in zip(omegas, matrix) for w2, p in zip(omegas, row)]
        _write_csv(config, "kernel.csv", "omega1_Trad_s,omega2_Trad_s,P", rows)
        print(f"wrote {len(rows)} kernel samples to kernel.csv", file=out)

    return float(kernel.matrix[mid, mid]), write


def run_tmatrix(config: RunConfig):
    """The smallest diagonal transmission; `write` writes the matrix and traces."""
    tm = temporal.transmission_matrix(_kernel(config), config.spec, config.max_mode)

    def write(out):
        size = range(tm.size)
        _write_csv(config, "tmatrix.csv", "n,m,S", [(n, m, float(tm.matrix[n, m])) for n in size for m in size])
        _write_csv(config, "traces.csv", "n,T", [(n, float(tm.traces[n])) for n in size])
        for n in size:
            print(",".join(f"{tm.matrix[n, m]:.4f}" for m in size), file=out)

    return float(np.min(np.diag(tm.matrix))), write


def run_entangle(config: RunConfig):
    """The smallest final log-negativity over the non-degenerate scan rows."""
    from .entanglement import robustness_scan

    rows = robustness_scan(
        _kernel(config), config.spec, config.fixed_mode, config.scan_modes, dim=config.pair_modes
    )

    def write(out):
        table = [(r.n, r.en_initial, r.en_final, r.fidelity, int(r.degenerate)) for r in rows]
        _write_csv(config, "entangle.csv", "n,EN_initial,EN_final,fidelity,degenerate_flag", table)
        for row in table:
            print(
                f"n={row[0]} EN_initial={row[1]:.4f} EN_final={row[2]:.4f} "
                f"fidelity={row[3]:.6f} degenerate={row[4]}",
                file=out,
            )

    return min(r.en_final for r in rows if not r.degenerate), write


def _fundamental_coupling_quadrature(z: float, cn2: float, w0: float, wavelength: float, kappa_0: float) -> tuple:
    """(L_0000 - L_T, L_T) of the fundamental at one wavelength by quadrature
    of the defining integral k^2 int Phi W_00^2 d^2K / 4 pi^2, W_00 =
    e^{-K^2 a / 8} and Phi the von Karman density: the first extrapolated to
    no outer scale from kappa_0 and kappa_0 / 2 (the leading error goes as
    kappa_0^(1/3)), L_T at kappa_0.  The radial rule is 16-node
    Gauss-Legendre panels in ln K, one per half decade from kappa_0 / 1000
    to 60 / sqrt(a).  Bit for bit the general oracle of the tests at this
    tuple, which needs the radial sum and its scaling to stay complex (numpy
    divides a complex by a real as a product with its reciprocal)."""
    t = turbulence.normalized_distance(z, wavelength, w0)
    a = (1.0 + t * t) * w0**2
    wavenumbers = (2.0 * math.pi) ** 2 / (wavelength * wavelength)
    scale = wavenumbers * (turbulence.SPECTRUM_AMPLITUDE * (2.0 * math.pi) ** 3 * cn2) * (2.0 * math.pi)  # 2 pi: angular
    nodes, node_weights = np.polynomial.legendre.leggauss(16)
    values = []
    for outer in (kappa_0, kappa_0 / 2.0):
        lo, hi = math.log(outer * 1e-3), math.log(60.0 / math.sqrt(a))
        panels = max(8, int(math.ceil((hi - lo) / math.log(10.0) * 2.0)))
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        K = np.exp((0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes[None, :]).ravel())
        spectral = np.tile(half * node_weights, panels) * K * K * (K * K + outer**2) ** (-11.0 / 6.0)
        radial = np.sum(spectral * (1 + 0j) * np.exp(-2.0 * (K * K * a / 8.0)))
        l_t = scale * np.sum(spectral) / (4.0 * math.pi**2)
        values.append(((scale * radial / (4.0 * math.pi**2)).real - l_t, l_t))
    (value_a, l_t), (value_b, _) = values
    weight = 2.0 ** (1.0 / 3.0)
    return (weight * value_b - value_a) / (weight - 1.0), l_t


def _free_prop_quadrature(z_r: float, w0: float) -> complex:
    """`lgmodes.free_prop_S` of the modes (r=1, l=0) and (r=0, l=0) by
    quadrature of (i / 2k) int |K|^2 G_1 G_0* d^2K / 4 pi^2 at the waist,
    G_r = (-1)^r w0 sqrt(2 / pi) pi e^{-y/4} L_r(y / 2) and y = (w0 K)^2, on
    a 160-point trapezoid grid per axis out to 9 / w0.  Bit for bit the
    general oracle of the tests at these modes, which needs its complex
    exponential and complex sum."""
    k = 2.0 * math.pi / (math.pi * w0**2 / z_r)
    axis = np.linspace(-9.0 / w0, 9.0 / w0, 160)
    step = axis[1] - axis[0]
    k_r = np.hypot(*np.meshgrid(axis, axis, indexing="ij"))
    y = (w0 * k_r) * (w0 * k_r)
    g0 = w0 * math.sqrt(2.0 / math.pi) * math.pi * np.exp(-0.25 * y * (1.0 - 0j))
    values = k_r**2 * (-g0 * (1.0 - 0.5 * y)) * np.conj(g0)
    return complex(0.5j / k * values.sum() * step * step / (4.0 * math.pi**2))


def run_validate(config: RunConfig):
    """Oracle cross-check suite: True iff every check passes; `write` prints
    one PASS/FAIL line per check."""
    from . import lgmodes

    checks = []

    rate_constant = turbulence.TOTAL_RATE_CONSTANT
    checks.append(("total_rate_constant_30.86", abs(rate_constant - 30.86) < 0.01, rate_constant))

    decay = turbulence.COUPLING_PREFACTOR * math.gamma(-5.0 / 6.0)
    checks.append(("decay_constant_-54.10", -54.2 < decay < -54.0, decay))

    fried = 3.25 / 0.185 ** (5.0 / 3.0)
    checks.append(("fried_link_54.1", 54.0 < fried < 54.3, fried))

    # coupling closed form vs quadrature oracle on a fundamental tuple
    w0, lam, cn2 = config.waist_m, config.wavelength_m, max(config.cn2, 1e-16)
    i00 = lgmodes.LGIndex(l=0, r=0)
    z_r = config.geometry.rayleigh_range
    z = 0.5 * z_r
    closed = lgmodes.coupling_tensor(lgmodes.ModeBasis(0), z, cn2, w0, lam).entries[0, 0, 0, 0]
    oracle, lt_oracle = _fundamental_coupling_quadrature(z, cn2, w0, lam, 1e-4 / w0)
    rel = abs(closed - oracle) / abs(closed)
    checks.append(("coupling_oracle_0.5%", rel < 5e-3, rel))

    lt_closed = turbulence.big_l_t(lam, lam, cn2, 1e-4 / w0)
    rel_lt = abs(lt_closed - lt_oracle) / lt_closed
    checks.append(("total_rate_oracle_0.1%", rel_lt < 1e-3, rel_lt))

    i10 = lgmodes.LGIndex(l=0, r=1)
    s_closed = lgmodes.free_prop_S(i10, i00, z_r)
    s_oracle = _free_prop_quadrature(z_r, w0)
    rel_s = abs(s_closed - s_oracle) * z_r
    checks.append(("free_prop_oracle_1e-6", rel_s < 1e-6, rel_s))

    def write(out):
        for name, ok, measured in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name} measured={measured}", file=out)

    return all(ok for _, ok, _ in checks), write


# name -> (runner, sweep column or None when it cannot be swept, gnuplot hint)
_SUBCOMMANDS = {
    "schmidt": (run_schmidt, "discarded_mass", "columns: n, eigenvalue, weight (renormalized amplitude)"),
    "beam": (
        run_beam,
        "probability",
        "columns: cn2 [m^-2/3], distance_m [m], waist_m [m], l_integral, probability",
    ),
    "coupling": (
        run_coupling,
        "L0000_re",
        "columns: lm, rm, ln, rn, lu, ru, lv, rv, re [1/m], im [1/m]",
    ),
    "kernel": (run_kernel, "P_center", "columns: omega1 [T rad/s], omega2 [T rad/s], P"),
    "tmatrix": (run_tmatrix, "S_diag_min", "files: tmatrix.csv n, m, S; traces.csv n, T"),
    "entangle": (
        run_entangle,
        "EN_final_min",
        "columns: n, EN_initial, EN_final, fidelity, degenerate_flag",
    ),
    "validate": (run_validate, None, "stdout lines: PASS/FAIL <check> <measured>"),
}

# ConfigError, ProfileError and the cost guards are ValueErrors (exit 1);
# SolverError, QuadratureError and the kernel guards are RuntimeErrors (exit 2)
_FAILURES = (ValueError, RuntimeError)


def _failure(exc: Exception) -> int:
    """Report a failure on stderr; returns its exit code."""
    if isinstance(exc, ValueError):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"numeric failure: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def run_subcommand(name: str, config: RunConfig, out=None) -> int:
    """Validate, run and write one subcommand; returns the process exit code."""
    try:
        validate_config(config, name)
        value, write = _SUBCOMMANDS[name][0](config)
        write(out or sys.stdout)
    except _FAILURES as exc:
        return _failure(exc)
    return EXIT_NUMERIC if value is False else EXIT_OK


def _check_threads(threads: int):
    if threads < 1:
        raise ConfigError(f"argument --threads: must be >= 1, got {threads}")


def sweep(config: RunConfig, subcommand: str, threads: int = 1, out=None) -> int:
    """Evaluate the Cartesian product of the sweep axes.

    Each point runs the subcommand's runner with the axis keys overridden
    and keeps its value; rows are emitted sorted by axis values regardless
    of execution order.
    """
    run, column, _ = _SUBCOMMANDS.get(subcommand, (None, None, None))

    def evaluate(point):
        local = replace(
            config, sweep_axes=(), sweep_values=(), **dict(zip(config.sweep_axes, point))
        )
        validate_config(local, subcommand)
        value = run(local)[0]
        return point + (value() if callable(value) else value,)

    try:
        _check_threads(threads)
        if not config.sweep_axes:
            raise ConfigError("sweep requires [sweep] axes")
        if column is None:
            raise ConfigError(f"cannot sweep subcommand '{subcommand}'")
        points = sorted(itertools.product(*config.sweep_values))
        # one OS thread per worker: never more than the points or the CPUs
        workers = min(threads, len(points), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(evaluate, points))
        else:
            rows = [evaluate(p) for p in points]
        _write_csv(config, f"sweep_{subcommand}.csv", ",".join(config.sweep_axes + (column,)), rows)
    except _FAILURES as exc:
        return _failure(exc)
    print(f"wrote {len(rows)} sweep rows to sweep_{subcommand}.csv", file=out or sys.stdout)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 as config errors: argparse would exit 2, which
    here means a numeric failure.  --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turbulink",
        description="Temporal-mode photon propagation through turbulent free-space links",
    )
    parser.add_argument(
        "--config",
        default=os.environ.get("TURBULINK_CONFIG", ""),
        help="config file path (default: $TURBULINK_CONFIG or built-in defaults)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="sweep worker threads, >= 1 (at most one per point and per CPU)"
    )
    parser.add_argument(
        "--gnuplot-hints",
        action="store_true",
        help="print column documentation for the subcommand and exit",
    )
    parser.add_argument(
        "command",
        choices=sorted(_SUBCOMMANDS) + ["sweep"],
        help="what to run",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="",
        help="subcommand to sweep (only with 'sweep')",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_threads(args.threads)
        if args.target and args.command != "sweep":
            raise ConfigError(f"unexpected argument {args.target!r}: only 'sweep' takes a target")
        config = parse_config(args.config) if args.config else RunConfig()
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"override '{item}' is not KEY=VALUE")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        config = apply_overrides(config, overrides)
    except ConfigError as exc:
        return _failure(exc)
    if args.gnuplot_hints:
        if args.command != "sweep":
            print(_SUBCOMMANDS[args.command][2])
        else:  # the sweep CSV: its axes, then the target's column
            column = _SUBCOMMANDS.get(args.target, (None, None, None))[1]
            axes = config.sweep_axes or ("<[sweep] axes>",)
            print(f"columns: {', '.join(axes + (column,))}" if column else "no hints for this subcommand")
        return EXIT_OK
    if args.command == "sweep":
        if not args.target:
            return _failure(ConfigError("sweep needs a target subcommand"))
        return sweep(config, args.target, threads=args.threads)
    return run_subcommand(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
