"""Digest of every CLI subcommand's output, for checking that a change
leaves the numbers bit-identical.

    PYTHONPATH=src python tools/output_digest.py > digest.txt

Runs each subcommand in this process through `turbulink.cli.main`, at three
override sets, each run in its own temporary output directory, and prints
one line per run: the command, the override set, the exit code and a
SHA-256 over stdout, stderr and every file the run wrote.  Point PYTHONPATH
at another checkout's `src` and diff the two outputs: equal lines mean
equal outputs.  Paths are relative to a temporary working directory, so a
message that names one hashes the same on every run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

from turbulink.cli import main

OVERRIDE_SETS = {
    "defaults": (),
    "coarse": ("cn2=3.7e-16", "grid_order=16", "max_mode=5"),
    "full_ipe": ("kernel_fidelity=full_ipe", "grid_order=4", "cutoff=1", "cn2=1e-16"),
}
COMMANDS = ("schmidt", "beam", "coupling", "kernel", "tmatrix", "entangle", "validate", "sweep tmatrix")
SWEEP_CONFIG = '[sweep]\naxes = ["waist_m"]\nwaist_m = [0.1, 0.1457]\n'


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
    digest = hashlib.sha256()
    for stream in (stdout, stderr):
        digest.update(stream.getvalue().encode() + b"\0")
    for name in sorted(os.listdir(output_dir)):
        with open(os.path.join(output_dir, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    return code, digest.hexdigest()


def print_digests():
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            with open("sweep.toml", "w", encoding="utf-8") as handle:
                handle.write(SWEEP_CONFIG)
            for index, (name, overrides) in enumerate(OVERRIDE_SETS.items()):
                for number, command in enumerate(COMMANDS):
                    code, digest = run(command, overrides, f"out_{index}_{number}")
                    print(f"{command}\t{name}\t{code}\t{digest}", flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    print_digests()
