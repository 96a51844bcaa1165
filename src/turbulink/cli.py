"""Command-line interface: subcommand dispatch, sweeps, CSV emission.

    turbulink <subcommand> [--config FILE] [--set key=value ...] [options]

Subcommands: schmidt, beam, coupling, kernel, tmatrix, entangle, validate,
and sweep (which re-runs another subcommand over the config's sweep axes).
The TURBULINK_CONFIG environment variable supplies the default config path.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.

All CSV bodies are deterministic for a fixed config (no timestamps; floats
rendered with repr); sweep output is assembled in sorted axis order after
all points finish, so it does not depend on the worker count.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import ipe, lgmodes, schmidt, temporal, turbulence
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config,
    validate_config,
)
from .entanglement import robustness_scan
from .ipe import SolverError
from .lgmodes import LGIndex, ModeBasis
from .schmidt import BiphotonSpec
from .temporal import KernelFidelity
from .turbulence import LinkGeometry, ProfileError, QuadratureError, TurbulenceProfile

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

GNUPLOT_HINTS = {
    "schmidt": "columns: n, eigenvalue, weight (renormalized amplitude)",
    "beam": "columns: cn2 [m^-2/3], distance_m [m], waist_m [m], l_integral, probability",
    "coupling": "columns: lm, rm, ln, rn, lu, ru, lv, rv, re [1/m], im [1/m]",
    "kernel": "columns: omega1 [T rad/s], omega2 [T rad/s], P",
    "tmatrix": "files: tmatrix.csv n, m, S; traces.csv n, T",
    "entangle": "columns: n, EN_initial, EN_final, fidelity, degenerate_flag",
    "validate": "stdout lines: PASS/FAIL <check> <measured>",
}


def _geometry(config: RunConfig) -> LinkGeometry:
    return LinkGeometry(
        path_length=config.distance_m,
        transmitter_height=config.transmitter_height_m,
        receiver_height=config.receiver_height_m,
        waist=config.waist_m,
        wavelength=config.wavelength_m,
    )


def _profile(config: RunConfig) -> TurbulenceProfile:
    if config.profile_csv:
        return TurbulenceProfile.from_csv(config.profile_csv)
    return TurbulenceProfile.from_constant(config.cn2)


def _spec(config: RunConfig) -> BiphotonSpec:
    return BiphotonSpec(
        sigma_a=config.sigma_a_rad,
        sigma_b=config.sigma_b_rad,
        omega_p=config.pump_rad,
    )


def _kernel(config: RunConfig) -> temporal.ChannelKernel:
    return temporal.channel_kernel(
        _spec(config),
        _profile(config),
        _geometry(config),
        grid_order=config.grid_order,
        fidelity=KernelFidelity(config.kernel_fidelity),
        cutoff=config.cutoff,
        extinction_per_km=config.extinction_per_km,
        steps=config.steps,
    )


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def run_schmidt(config: RunConfig, out=None) -> list:
    out = out or sys.stdout
    spec = _spec(config)
    source = schmidt.truncated_source(spec, config.max_mode)
    rows = []
    for n in range(config.max_mode + 1):
        lam = schmidt.schmidt_eigenvalue(spec, n)
        rows.append((n, lam, float(source.weights[n])))
    print("n,eigenvalue,weight", file=out)
    for n, lam, weight in rows:
        print(f"{n},{lam:.6f},{weight:.6f}", file=out)
    print(f"schmidt_number,{schmidt.schmidt_number(spec):.6f}", file=out)
    print(f"discarded_mass_percent,{100.0 * source.discarded_mass:.4f}", file=out)
    print(f"norm_prefactor,{source.norm_prefactor:.6f}", file=out)
    print(f"probability_prefactor,{1.0 / (1.0 - source.discarded_mass):.6f}", file=out)
    _write_csv(_out_path(config, "schmidt.csv"), "n,eigenvalue,weight", rows)
    return rows


def run_beam(config: RunConfig, out=None) -> list:
    out = out or sys.stdout
    if "distance_m" in config.sweep_axes:
        distances = list(config.sweep_values[config.sweep_axes.index("distance_m")])
    else:
        distances = list(np.geomspace(1e3, 1e5, 25))
    cn2_family = [1e-13, 1e-14, 1e-15, 1e-16, 1e-17]
    rows = ipe.distance_sweep(
        cn2_family,
        distances,
        config.wavelength_m,
        transmitter_height=config.transmitter_height_m,
        receiver_height=config.receiver_height_m,
        extinction_per_km=config.extinction_per_km,
    )
    table = [
        (r["cn2"], r["distance_m"], r["waist_m"], r["l_integral"], r["probability"])
        for r in rows
    ]
    _write_csv(
        _out_path(config, "beam.csv"),
        "cn2_m^-2/3,distance_m,waist_m,l_integral,probability",
        table,
    )
    print(f"wrote {len(table)} rows to beam.csv", file=out)
    return table


def run_coupling(config: RunConfig, out=None) -> list:
    out = out or sys.stdout
    basis = ModeBasis(min(config.cutoff, 2))
    tensor = lgmodes.coupling_tensor(
        basis,
        config.distance_m,
        config.cn2,
        config.waist_m,
        config.wavelength_m,
    )
    rows = []
    for a, m in enumerate(basis.indices):
        for b, n in enumerate(basis.indices):
            for c, u in enumerate(basis.indices):
                for d, v in enumerate(basis.indices):
                    value = tensor.entries[a, b, c, d]
                    if value != 0:
                        rows.append(
                            (m.l, m.r, n.l, n.r, u.l, u.r, v.l, v.r, value.real, value.imag)
                        )
    _write_csv(_out_path(config, "coupling.csv"), "lm,rm,ln,rn,lu,ru,lv,rv,re,im", rows)
    print(f"wrote {len(rows)} nonzero tensor entries to coupling.csv", file=out)
    return rows


def run_kernel(config: RunConfig, out=None) -> list:
    out = out or sys.stdout
    kernel = _kernel(config)
    rows = []
    for i, w1 in enumerate(kernel.omegas):
        for j, w2 in enumerate(kernel.omegas):
            rows.append((w1 / 1e12, w2 / 1e12, float(kernel.matrix[i, j])))
    _write_csv(_out_path(config, "kernel.csv"), "omega1_Trad_s,omega2_Trad_s,P", rows)
    print(f"wrote {len(rows)} kernel samples to kernel.csv", file=out)
    return rows


def run_tmatrix(config: RunConfig, out=None):
    out = out or sys.stdout
    kernel = _kernel(config)
    spec = _spec(config)
    tm = temporal.transmission_matrix(kernel, spec, config.max_mode)
    rows = [
        (n, m, float(tm.matrix[n, m]))
        for n in range(tm.size)
        for m in range(tm.size)
    ]
    _write_csv(_out_path(config, "tmatrix.csv"), "n,m,S", rows)
    _write_csv(
        _out_path(config, "traces.csv"),
        "n,T",
        [(n, float(tm.traces[n])) for n in range(tm.size)],
    )
    for n in range(tm.size):
        print(",".join(f"{tm.matrix[n, m]:.4f}" for m in range(tm.size)), file=out)
    return tm


def _robustness_rows(config: RunConfig) -> list:
    """Robustness scan over `config.scan_modes`, shared by the entangle
    subcommand and its sweep summary."""
    return robustness_scan(
        _kernel(config), _spec(config), config.fixed_mode, config.scan_modes, dim=config.pair_modes
    )


def run_entangle(config: RunConfig, out=None) -> list:
    out = out or sys.stdout
    rows = _robustness_rows(config)
    table = [
        (r.n, r.en_initial, r.en_final, r.fidelity, int(r.degenerate))
        for r in rows
    ]
    _write_csv(
        _out_path(config, "entangle.csv"),
        "n,EN_initial,EN_final,fidelity,degenerate_flag",
        table,
    )
    for row in table:
        print(
            f"n={row[0]} EN_initial={row[1]:.4f} EN_final={row[2]:.4f} "
            f"fidelity={row[3]:.6f} degenerate={row[4]}",
            file=out,
        )
    return table


def run_validate(config: RunConfig, out=None) -> bool:
    """Oracle cross-check suite; prints one PASS/FAIL line per check."""
    out = out or sys.stdout
    checks = []

    rate_constant = turbulence.TOTAL_RATE_CONSTANT
    checks.append(("total_rate_constant_30.86", abs(rate_constant - 30.86) < 0.01, rate_constant))

    decay = 8.1 * lgmodes.gamma_fn(-5.0 / 6.0)
    checks.append(("decay_constant_-54.10", -54.2 < decay < -54.0, decay))

    fried = 3.25 / 0.185 ** (5.0 / 3.0)
    checks.append(("fried_link_54.1", 54.0 < fried < 54.3, fried))

    # coupling closed form vs quadrature oracle on a fundamental tuple
    w0, lam, cn2 = config.waist_m, config.wavelength_m, max(config.cn2, 1e-16)
    i00 = LGIndex(l=0, r=0)
    z_r = _geometry(config).rayleigh_range
    z = 0.5 * z_r
    closed = lgmodes.coupling_tensor(ModeBasis(0), z, cn2, w0, lam).entries[0, 0, 0, 0]
    oracle = lgmodes.coupling_oracle_extrapolated(i00, i00, i00, i00, z, cn2, w0, lam, 1e-4 / w0)
    rel = abs(closed - oracle) / abs(closed)
    checks.append(("coupling_oracle_0.5%", rel < 5e-3, rel))

    spectrum = turbulence.SpectrumParams(kappa_0=1e-4 / w0)
    lt_closed = turbulence.big_l_t(lam, lam, cn2, spectrum)
    _, lt_oracle = lgmodes.coupling_numeric_oracle(i00, i00, i00, i00, z, cn2, w0, lam, 1e-4 / w0)
    rel_lt = abs(lt_closed - lt_oracle) / lt_closed
    checks.append(("total_rate_oracle_0.1%", rel_lt < 1e-3, rel_lt))

    i10 = LGIndex(l=0, r=1)
    s_closed = lgmodes.free_prop_S(i10, i00, z_r)
    s_oracle = lgmodes.free_prop_S_numeric(i10, i00, z_r, w0)
    rel_s = abs(s_closed - s_oracle) * z_r
    checks.append(("free_prop_oracle_1e-6", rel_s < 1e-6, rel_s))

    all_ok = True
    for name, ok, measured in checks:
        all_ok &= bool(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name} measured={measured}", file=out)
    return all_ok


_SUBCOMMANDS = {
    "schmidt": run_schmidt,
    "beam": run_beam,
    "coupling": run_coupling,
    "kernel": run_kernel,
    "tmatrix": run_tmatrix,
    "entangle": run_entangle,
    "validate": run_validate,
}


def run_subcommand(name: str, config: RunConfig, out=None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    out = out or sys.stdout
    try:
        validate_config(config, name)
        result = _SUBCOMMANDS[name](config, out=out)
    except ValueError as exc:  # ConfigError, ProfileError, guard violations
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, QuadratureError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if name == "validate" and result is False:
        return EXIT_NUMERIC
    return EXIT_OK


def sweep(config: RunConfig, subcommand: str, threads: int = 1, out=None) -> int:
    """Evaluate the Cartesian product of the sweep axes.

    Each point re-runs the subcommand with the axis keys overridden; rows
    are emitted sorted by axis values regardless of execution order.
    """
    if not config.sweep_axes:
        print("config error: sweep requires [sweep] axes", file=sys.stderr)
        return EXIT_CONFIG
    if subcommand not in _SUBCOMMANDS or subcommand == "validate":
        print(f"config error: cannot sweep subcommand '{subcommand}'", file=sys.stderr)
        return EXIT_CONFIG

    points = sorted(itertools.product(*config.sweep_values))

    def evaluate(point):
        local = replace(
            config,
            sweep_axes=(),
            sweep_values=(),
            **dict(zip(config.sweep_axes, point)),
        )
        validate_config(local, subcommand)
        summary = _point_summary(subcommand, local)
        return point, summary

    try:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(evaluate, points))
        else:
            results = [evaluate(p) for p in points]
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, QuadratureError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    results.sort(key=lambda item: item[0])
    header = ",".join(config.sweep_axes) + "," + _point_header(subcommand)
    rows = [tuple(point) + tuple(summary) for point, summary in results]
    _write_csv(_out_path(config, f"sweep_{subcommand}.csv"), header, rows)
    print(f"wrote {len(rows)} sweep rows to sweep_{subcommand}.csv", file=out)
    return EXIT_OK


def _point_header(subcommand: str) -> str:
    return {
        "beam": "probability",
        "schmidt": "discarded_mass",
        "kernel": "P_center",
        "tmatrix": "S_diag_min",
        "entangle": "EN_final_min",
        "coupling": "L0000_re",
    }[subcommand]


def _point_summary(subcommand: str, config: RunConfig) -> tuple:
    """One scalar summary per sweep point; only the sweep CSV is written."""
    if subcommand == "beam":
        geom = _geometry(config)
        value = ipe.analytic_decay(
            _profile(config), geom, extinction_per_km=config.extinction_per_km
        )
        return (value,)
    if subcommand == "schmidt":
        source = schmidt.truncated_source(_spec(config), config.max_mode)
        return (source.discarded_mass,)
    if subcommand == "kernel":
        kernel = _kernel(config)
        mid = kernel.order // 2
        return (float(kernel.matrix[mid, mid]),)
    if subcommand == "tmatrix":
        tm = temporal.transmission_matrix(_kernel(config), _spec(config), config.max_mode)
        return (float(np.min(np.diag(tm.matrix))),)
    if subcommand == "entangle":
        rows = _robustness_rows(config)
        return (min(r.en_final for r in rows if not r.degenerate),)
    if subcommand == "coupling":
        tensor = lgmodes.coupling_tensor(
            ModeBasis(0), config.distance_m, config.cn2, config.waist_m, config.wavelength_m
        )
        return (tensor.entries[0, 0, 0, 0].real,)
    raise ConfigError(f"no sweep summary for '{subcommand}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--threads", type=int, default=1, help="sweep worker threads")
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
    args = build_parser().parse_args(argv)
    if args.gnuplot_hints:
        name = args.target if args.command == "sweep" else args.command
        print(GNUPLOT_HINTS.get(name, "no hints for this subcommand"))
        return EXIT_OK
    try:
        config = parse_config(args.config) if args.config else RunConfig()
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"override '{item}' is not KEY=VALUE")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        config = apply_overrides(config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "sweep":
        if not args.target:
            print("config error: sweep needs a target subcommand", file=sys.stderr)
            return EXIT_CONFIG
        return sweep(config, args.target, threads=args.threads)
    return run_subcommand(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
