"""In-process A/B of two `src` trees on one perfbench workload's job list.

    python tools/job_ab.py OLD_SRC NEW_SRC [--workload link_budget]
        [--seeds 1 2 3] [--passes 5]

Loads the `turbulink` package of each tree in this one process, builds a
`perfbench.worker.Library` on each, and runs every job of
`perfbench.jobs.job_list(workload, seed)` on both sides, alternating the
side job by job (the side that goes first alternates from job to job and
pass to pass), over an untimed warm-up pass (first calls, cold caches) and
`--passes` timed passes per seed.  Prints, per job class and over all
jobs, the median time of a job on each side and their ratio NEW / OLD,
then the total, and whether every job's outputs were `np.array_equal` on
both sides (NaN equal to NaN) in every pass.  Where they were not, it
prints, per job class, the largest |new - old| over the largest |old| of
the differing outputs' numbers, as `output_digest.py --compare` sizes a
line, so that a change exact up to rounding can be sized here.  Exits 1 if
some output differed.

Only the timed call of each job into turbulink is timed, as perfbench times
it, but without perfbench's calibration scaling, on interleaved runs of
the same process: a change of a few per cent stands out of the run-to-run
spread here before it does in `perfbench/run.py`.  The CLI workload
(`cli_cold`) runs child processes and is not supported.
"""
from __future__ import annotations

import argparse
import copy
import math
import statistics
import sys
import tempfile
import time
from enum import Enum
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import jobs as joblib  # noqa: E402
from perfbench.worker import Library  # noqa: E402


def turbulink_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "turbulink" or name.startswith("turbulink.")}


def load(src: str, workload: str, job_list: list, workdir: str) -> tuple:
    """A Library on the turbulink of `src`, and that tree's modules."""
    for name in turbulink_modules():
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        library = Library(workload, workdir, job_list)
    finally:
        sys.path.remove(src)
    modules = turbulink_modules()
    origin = Path(modules["turbulink"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"turbulink came from {origin}, not from {src}")
    return library, modules


def job_class(job: dict) -> str:
    """The job's kind, with its grid order, profile kind and cutoff where it has them."""
    parts = [job["kind"]]
    if "grid_order" in job:
        parts.append(f"g{job['grid_order']}")
    if job["kind"] == "link":
        parts.append("tabulated" if "profile" in job else "constant")
    if "cutoff" in job:
        parts.append(f"c{job['cutoff']}")
    if "dim" in job:
        parts.append(f"dim{job['dim']}")
    return " ".join(parts)


def same(a, b) -> bool:
    """Whether two job outputs are equal entry for entry (enums by value,
    dicts key by key, arrays and numbers by np.array_equal)."""
    if isinstance(a, Enum) or isinstance(b, Enum):
        return getattr(a, "value", a) == getattr(b, "value", b)
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a, keys_b = (sorted(d, key=repr) for d in (a, b))
        return len(a) == len(b) and all(
            same(ka, kb) and same(a[ka], b[kb]) for ka, kb in zip(keys_a, keys_b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    try:
        return np.array_equal(a, b, equal_nan=True)
    except TypeError:
        return np.array_equal(a, b)


def numbers(output) -> np.ndarray:
    """Every number of a job output as one float array, in the order `same`
    compares them (dict items by key, enums by value, the real parts of a
    complex array before its imaginary parts); strings and other objects
    add none."""
    if isinstance(output, Enum):
        return numbers(output.value)
    if isinstance(output, dict):
        parts = [numbers(x) for key in sorted(output, key=repr) for x in (key, output[key])]
    elif isinstance(output, (list, tuple)):
        parts = [numbers(x) for x in output]
    else:
        array = np.asarray(output)
        parts = [array.real.ravel(), array.imag.ravel()] if array.dtype.kind == "c" else [array.ravel()]
        parts = [x.astype(float) for x in parts if x.dtype.kind in "biuf"]
    return np.concatenate(parts) if parts else np.empty(0)


def relative_change(old, new) -> float:
    """The largest |new - old| over the largest |old| of two job outputs'
    numbers (NaN equal to NaN; over 1 where every old number is 0), or inf
    if they hold different counts of numbers."""
    a, b = numbers(old), numbers(new)
    if a.shape != b.shape:
        return math.inf
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        difference = np.max(np.abs(a - b), where=~equal, initial=0.0)
    return difference / (np.max(np.abs(a), where=~np.isnan(a), initial=0.0) or 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", default="link_budget",
                        choices=[w for w in joblib.WORKLOADS if w != "cli_cold"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)

    times = {}  # class -> ([old seconds], [new seconds])
    differing, changes = [], {}  # class -> largest relative change
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            job_list = joblib.job_list(args.workload, seed)
            sides = []
            for index, src in enumerate((args.old_src, args.new_src)):
                workdir = Path(work, f"{seed}_{index}")
                workdir.mkdir()
                jobs = copy.deepcopy(job_list)
                sides.append((*load(src, args.workload, jobs, str(workdir)), jobs))
            for number in range(args.passes + 1):  # pass 0 warms both sides up, untimed
                for position, job in enumerate(job_list):
                    outputs, elapsed = [None, None], [0.0, 0.0]
                    for side in ((0, 1) if (number + position) % 2 == 0 else (1, 0)):
                        library, modules, jobs = sides[side]
                        sys.modules.update(modules)
                        start = time.perf_counter()
                        outputs[side] = library.execute(jobs[position])
                        elapsed[side] = time.perf_counter() - start
                    if number:
                        pair = times.setdefault(job_class(job), ([], []))
                        pair[0].append(elapsed[0])
                        pair[1].append(elapsed[1])
                    if not same(*outputs):
                        name = job_class(job)
                        differing.append((seed, number, position, name))
                        changes[name] = max(relative_change(*outputs), changes.get(name, 0.0))

    print(f"{args.workload}: seeds {args.seeds}, {args.passes} passes, medians per job")
    print(f"{'class':<28}{'jobs':>6}{'old ms':>10}{'new ms':>10}{'new/old':>9}")
    totals = [0.0, 0.0]
    for name in sorted(times):
        old, new = times[name]
        totals[0] += sum(old)
        totals[1] += sum(new)
        old_ms, new_ms = 1e3 * statistics.median(old), 1e3 * statistics.median(new)
        print(f"{name:<28}{len(old):>6}{old_ms:>10.3f}{new_ms:>10.3f}{new_ms / old_ms:>9.3f}")
    every = [sum((times[name][side] for name in times), []) for side in (0, 1)]
    old_ms, new_ms = (1e3 * statistics.median(x) for x in every)
    print(f"{'all jobs':<28}{len(every[0]):>6}{old_ms:>10.3f}{new_ms:>10.3f}{new_ms / old_ms:>9.3f}")
    print(f"{'total s':<28}{'':>6}{totals[0]:>10.3f}{totals[1]:>10.3f}{totals[1] / totals[0]:>9.3f}")
    if differing:
        print(f"outputs differ on {len(differing)} job runs, first: seed {differing[0][0]},"
              f" pass {differing[0][1]}, job {differing[0][2]} ({differing[0][3]})")
        print(f"{'class':<28}{'largest |new - old| / largest |old|':>38}")
        for name in sorted(changes):
            print(f"{name:<28}{changes[name]:>38.3g}")
        return 1
    print("outputs np.array_equal on both sides for every job")
    return 0


if __name__ == "__main__":
    sys.exit(main())
