"""Digest of every CLI subcommand's output, and of the `ipe` outputs that
no subcommand writes, for checking that a change leaves the numbers
bit-identical.

    PYTHONPATH=src python tools/output_digest.py > digest.txt

Runs each subcommand in this process through `turbulink.cli.main`, at eleven
override sets, each run in its own temporary output directory, and prints
one line per run: the command, the override set, the exit code and a
SHA-256 over stdout, stderr and every file the run wrote.  Paths are
relative to a temporary working directory, so a message that names one
hashes the same on every run; the tabulated profile of one set is written
there too.  Then it prints one line per `ipe.propagate`
run (the fundamental, LG(l=+1) and a seeded random pure state; cutoffs 0-4,
both schemes, 1 and 30 km at C_n^2 = 1e-15, with and without
`check_convergence`) with a SHA-256 of the output matrix's bytes, or of the
message of the error it raised, and one line for `ipe.cutoff_bracketing`
over cutoffs 0-4.  Last come the analytic link path's scalar and trace
outputs, which the subcommands reach only in part (`beam` integrates
constant profiles alone, and only `tmatrix` writes traces): one line per
`ipe.analytic_decay` on a constant, a tabulated (PROFILE_CSV) and a graded
link at 1, 10 and 100 km, and one per `temporal.mode_trace` of every
resolvable mode of each link's 30 km kernel at g = 16 and 64.  Point
PYTHONPATH at another checkout's `src` and diff the two outputs: equal
lines mean equal outputs.

The hashes only say that a line changed.  To see by how much:

    PYTHONPATH=src python tools/output_digest.py --save values.npz > digest.txt
    PYTHONPATH=src python tools/output_digest.py --compare old.npz new.npz

`--save` also writes the values behind each line to an .npz file: every
number in the stdout, stderr and files of a CLI run (in order of
appearance, files sorted by name), the real and imaginary parts of a
`propagate` matrix, the bracketing populations, and each path output; a
line that raised saves no values.  `--compare` prints, for each line of the
first save, its largest absolute difference over its largest magnitude in
the first save (0 where both are equal or empty), or why it cannot be
compared (missing, or a different number of values).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np

from turbulink import ipe
from turbulink.cli import main
from turbulink.config import RunConfig
from turbulink.lgmodes import LGIndex, ModeBasis
from turbulink.temporal import channel_kernel, mode_trace
from turbulink.turbulence import LinkGeometry, TurbulenceProfile

OVERRIDE_SETS = {
    "defaults": (),
    "coarse": ("cn2=3.7e-16", "grid_order=16", "max_mode=5"),
    "full_ipe": ("kernel_fidelity=full_ipe", "grid_order=4", "cutoff=1", "cn2=1e-16"),
    # a strong link for 64 steps: the kernel's dispersive phase reaches 15 % of
    # its real part, so the kernel commands stop at the imaginary-part guard
    "full_ipe_strong": ("kernel_fidelity=full_ipe", "grid_order=8", "cutoff=2", "cn2=1e-14", "steps=64"),
    # entangle runs under these two (the sets above refuse it for pair_modes)
    "scan": ("cn2=3e-16", "pair_modes=9", "fixed_mode=4"),
    "full_ipe_scan": ("kernel_fidelity=full_ipe", "grid_order=12", "cutoff=1", "cn2=1e-16", "pair_modes=6"),
    # a full-IPE kernel above cutoff 1 (tmatrix, entangle and sweep refuse the default modes at g=6)
    "full_ipe_c3": ("kernel_fidelity=full_ipe", "grid_order=6", "cutoff=3", "cn2=1e-16"),
    # the default chord sags to 1.4 m mid-path, so it crosses the three lower
    # table heights twice each: the path rule adds an edge at every crossing
    "tabulated": ("profile_csv=profile.csv",),
    # 30 km is about 24 Rayleigh ranges of a 4 cm waist: graded panels past 8
    "graded": ("waist_m=0.04", "cn2=1e-16"),
    # the largest analytic grid, with the largest modes tmatrix and entangle take
    "g64": ("grid_order=64", "max_mode=14", "pair_modes=14"),
    # a flat extinction (depth 9 over the default 30 km): beam, kernel, tmatrix
    # and entangle carry its factor, which every set above leaves at 1
    "extinction": ("extinction_per_km=0.3",),
}
COMMANDS = ("schmidt", "beam", "coupling", "kernel", "tmatrix", "entangle", "validate", "sweep tmatrix")
SWEEP_CONFIG = '[sweep]\naxes = ["waist_m"]\nwaist_m = [0.1, 0.1457]\n'
PROFILE_CSV = "height_m,cn2\n2.0,4e-16\n8.0,2e-16\n15.0,1e-16\n40.0,5e-17\n"
# the links of the analytic-path lines, as (cn2, waist_m) over the default
# link; None reads PROFILE_CSV.  A 4 cm waist grades the panels past 8
# Rayleigh ranges from about 5 km on.
PATH_LINKS = {"constant": (1e-16, 0.1457), "tabulated": (None, 0.1457), "graded": (1e-16, 0.04)}
NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
VALUES = {}  # line label -> the float64 values behind it, for --save


def emit(label: str, digest: str, values) -> None:
    """Print one digest line and keep its values."""
    print(f"{label}\t{digest}", flush=True)
    VALUES[label] = np.asarray(values, dtype=float).ravel()


def numbers(data: bytes) -> list:
    """Every number written in a text output, in order."""
    return [float(token) for token in NUMBER.findall(data)]


def run(command: str, overrides: tuple, output_dir: str) -> tuple:
    """Exit code and SHA-256 of one in-process CLI run."""
    os.mkdir(output_dir)
    config = "sweep.toml" if command.startswith("sweep") else ""
    argv = [f"--config={config}", "--set", f"output_dir={output_dir}"]
    for item in overrides:
        argv += ["--set", item]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        # a fresh filter list shows each warning once per run, as in a new process
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = main(argv + command.split())
            except Exception as exc:  # a CLI process would end in a traceback
                code = f"raised {type(exc).__name__}"
                print(exc, file=sys.stderr)
    digest, values = hashlib.sha256(), []
    for stream in (stdout, stderr):
        digest.update(stream.getvalue().encode() + b"\0")
        values += numbers(stream.getvalue().encode())
    for name in sorted(os.listdir(output_dir)):
        with open(os.path.join(output_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
        values += numbers(data)
    return code, digest.hexdigest(), values


def input_states(cutoff: int) -> dict:
    """The `propagate` inputs at one cutoff: the fundamental, LG(l=+1) (from
    cutoff 1) and a random pure state seeded by the cutoff."""
    basis = ModeBasis(cutoff)
    states = {"fundamental": ipe.DensityMatrix.pure(basis, LGIndex(l=0, r=0))}
    if cutoff:
        states["lg_l+1"] = ipe.DensityMatrix.pure(basis, LGIndex(l=1, r=0))
    rng = np.random.default_rng(cutoff)
    vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    vec /= np.linalg.norm(vec)
    states["random_pure"] = ipe.DensityMatrix(basis=basis, matrix=np.outer(vec, vec.conj()))
    return states


def print_ipe_digests():
    profile = TurbulenceProfile.from_constant(1e-15)
    for cutoff in range(5):
        for name, rho0 in input_states(cutoff).items():
            for scheme in ipe.PropagationScheme:
                for km in (1, 30):
                    geom = LinkGeometry(km * 1e3, 19.0, 19.0, 0.1457, 3.95e-6)
                    for check in (False, True):
                        config = ipe.SolverConfig(cutoff=cutoff, scheme=scheme, check_convergence=check)
                        try:
                            matrix = ipe.propagate(rho0, profile, geom, config).matrix
                            data, values = matrix.tobytes(), matrix.view(float)
                        except ipe.SolverError as exc:
                            data, values = f"raised SolverError: {exc}".encode(), []
                        label = f"c{cutoff} {name} {scheme.value} {km} km check={check}"
                        emit(f"propagate\t{label}", hashlib.sha256(data).hexdigest(), values)
    digest, populations = hashlib.sha256(), []
    for (scheme, cutoff), values in ipe.cutoff_bracketing(np.linspace(0, 0.1, 11), range(5)).items():
        digest.update(f"{scheme.value} {cutoff}".encode() + values.tobytes())
        populations.append(values)
    emit("cutoff_bracketing\tcutoffs 0-4", digest.hexdigest(), np.concatenate(populations))


def print_path_digests():
    table = [row.split(",") for row in PROFILE_CSV.splitlines()[1:]]
    for name, (cn2, waist) in PATH_LINKS.items():
        profile = TurbulenceProfile.from_table(table) if cn2 is None else TurbulenceProfile.from_constant(cn2)
        config = replace(RunConfig(), waist_m=waist)
        for km in (1, 10, 100):
            geom = replace(config, distance_m=km * 1e3).geometry
            print_value("analytic_decay", f"{name} {km} km", ipe.analytic_decay, profile, geom)
        for order in (16, 64):
            print_value("mode_trace", f"{name} 30 km g{order}", mode_traces, config, profile, order)


def mode_traces(config: RunConfig, profile, order: int) -> list:
    """T_n of every mode resolvable on the link's analytic kernel of grid order `order`."""
    kernel = channel_kernel(config.spec, profile, config.geometry, grid_order=order)
    return [mode_trace(kernel, config.spec, n) for n in range(order // 2)]


def print_value(kind: str, label: str, compute, *args):
    """One line with a SHA-256 of compute(*args) as float64 bytes, or of
    the message of the error it raised."""
    try:
        values = np.asarray(compute(*args), dtype=float)
        data = values.tobytes()
    except Exception as exc:
        values, data = [], f"raised {type(exc).__name__}: {exc}".encode()
    emit(f"{kind}\t{label}", hashlib.sha256(data).hexdigest(), values)


def print_digests():
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            for path, text in (("sweep.toml", SWEEP_CONFIG), ("profile.csv", PROFILE_CSV)):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            for index, (name, overrides) in enumerate(OVERRIDE_SETS.items()):
                for number, command in enumerate(COMMANDS):
                    code, digest, values = run(command, overrides, f"out_{index}_{number}")
                    emit(f"{command}\t{name}", f"{code}\t{digest}", values)
        finally:
            os.chdir(home)


def compare(first: str, second: str):
    """Each line's largest absolute difference over its largest magnitude."""
    saves = []
    for path in (first, second):
        with np.load(path) as data:
            saves.append({str(label): data[f"v{i}"] for i, label in enumerate(data["labels"])})
    for label, old in saves[0].items():
        new = saves[1].get(label)
        if new is None:
            change = "missing in the second save"
        elif new.shape != old.shape:
            change = f"{old.size} values against {new.size}"
        else:
            equal = (old == new) | (np.isnan(old) & np.isnan(new))
            with np.errstate(invalid="ignore"):
                difference = np.max(np.abs(old - new), where=~equal, initial=0.0)
            change = f"{difference / (np.max(np.abs(old), initial=0.0) or 1.0):.3g}"
        print(f"{label}\t{change}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="NPZ", help="also write the values behind each line here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saves and exit")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        sys.exit()
    print_digests()
    print_ipe_digests()
    print_path_digests()
    if args.save:
        np.savez(args.save, labels=np.array(list(VALUES)), **{f"v{i}": v for i, v in enumerate(VALUES.values())})
