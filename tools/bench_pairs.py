"""Paired perfbench runs of two trees, written as one BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --first-seed S
        [--workloads link_budget ...] [--pairs 10] [--note TEXT]
        [--out BENCH_name.json]

PARENT_TREE and CHANGE_TREE are two copies of the repository (say, one made
with `git archive` of the parent commit, and the working tree).  The
workloads, the end-to-end metrics with their bounds and the run length S
come from the trees' BENCHMARK.json (`workloads`, `end_to_end`,
`run_seconds`), which must agree; --workloads picks some of them, all by
default.  For each workload, in the order given, pair k runs `python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0` in both trees back to back on
one seed N, the parent first in even-numbered pairs and the change first in
odd ones.  Workload i of the list uses the seeds S + 100 i .. S + 100 i +
pairs - 1, so no seed repeats across workloads; pick a first seed that was
not used while the change was written.

The file holds the schema-1 fields of earlier BENCH_*.json files:
`command` (the perfbench command, with W, N and S), `made_by`
(this command, the trees named PARENT_TREE and CHANGE_TREE), `hardware`,
`note`, `src_sha256` (of the concatenated bytes of each tree's
src/turbulink/*.py in sorted order), `workloads` (per pair: the seed, the
side that went first, and each side's correct, attempted, failed and
end-to-end metrics) and `summary` (per workload and metric: each side's
statistics.quantiles(n=4) quartiles and median, in how many pairs the change
was lower and higher, the ratio of the medians and the `verdict`; the failed
jobs of each side and whether every run was correct).  Progress, and one
line per verdict, go to stderr.  Exits 1 if a run fails.

The verdict on a metric, with B its `bound` in BENCHMARK.json (relative to
the parent's median) and lower better, as for every end-to-end metric there:
`gain` if the change was lower in at least 9/10 of the pairs (ties count
for neither) and the medians differ by more than the parent's q3 - q1;
else `worse` if the change's median exceeds the parent's by more than B;
else `unresolved` if the parent's q3 - q1 is wider than B, unless every
change run is below every parent run; else `flat`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SEED_STRIDE = 100


def src_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "turbulink").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def hardware() -> str:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        model = names[0] if names else model
    return (f"{os.cpu_count()}-vCPU {model}, Python {platform.python_version()}, numpy {np.__version__}; "
            "perfbench pins each run to one CPU")


def benchmark(tree: Path) -> tuple:
    """(workload names, {end-to-end metric name: bound}, run seconds) of the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    if any(m["better"] != "lower" for m in spec["end_to_end"]):
        raise SystemExit(f"{tree}: the verdicts take every end-to-end metric as better when lower")
    return ([w["name"] for w in spec["workloads"]], {m["name"]: m["bound"] for m in spec["end_to_end"]},
            spec["run_seconds"])


def run(tree: Path, workload: str, seed: int, seconds, metrics) -> dict:
    """One `--trace 0` run in `tree`: its correct, attempted and failed
    counts and the value of every end-to-end metric."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(command[1:])} exited {result.returncode}:\n{result.stderr}")
    last = json.loads(result.stdout.strip().splitlines()[-1])
    record = {key: last[key] for key in ("correct", "attempted", "failed")}
    record.update((name, last["metrics"][name]["value"]) for name in metrics)
    return record


def verdict(parent: list, change: list, bound: float) -> str:
    """`gain`, `worse`, `unresolved` or `flat` for one metric's paired runs
    (see the module docstring)."""
    q1, median, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    lower = sum(c < p for p, c in zip(parent, change))
    if 10 * lower >= 9 * len(parent) and median - statistics.median(change) > q3 - q1:
        return "gain"
    if statistics.median(change) > (1 + bound) * median:
        return "worse"
    if q3 - q1 > bound * median and not max(change) < min(parent):
        return "unresolved"
    return "flat"


def summarize(pairs: list, metrics: dict) -> dict:
    summary = {"pairs": len(pairs)}
    for name, bound in metrics.items():
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4) if len(pairs) > 1 else values[side] * 3
            entry[f"{side}_q1_median_q3"] = [round(q, 6) for q in (q1, median, q3)]
        entry["change_lower_in"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["change_higher_in"] = sum(c > p for p, c in zip(values["parent"], values["change"]))
        entry["median_ratio"] = round(statistics.median(values["change"]) / statistics.median(values["parent"]), 4)
        entry["verdict"] = verdict(values["parent"], values["change"], bound)
        summary[name] = entry
    summary["failed_jobs"] = {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES}
    summary["correct"] = {side: all(pair[side]["correct"] for pair in pairs) for side in SIDES}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired perfbench runs of two trees (see the module docstring)")
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    for tree in trees.values():
        if not all((tree / part).exists() for part in ("BENCHMARK.json", "perfbench/run.py", "src/turbulink")):
            parser.error(f"{tree} holds no BENCHMARK.json, perfbench/run.py and src/turbulink")
    names, metrics, seconds = benchmark(trees["change"])
    if benchmark(trees["parent"]) != (names, metrics, seconds):
        parser.error("the two trees' BENCHMARK.json differ in workloads, end-to-end metrics, bounds or run_seconds")
    args.workloads = args.workloads or names
    if not set(args.workloads) <= set(names):
        parser.error(f"--workloads must be among {', '.join(names)}")

    workloads = {}
    for index, workload in enumerate(args.workloads):
        pairs = []
        for k in range(args.pairs):
            seed = args.first_seed + SEED_STRIDE * index + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed, seconds, metrics)
            pairs.append(pair)
            print(f"{workload} seed {seed}: job_p50_s {pair['parent']['job_p50_s']:.6g} -> "
                  f"{pair['change']['job_p50_s']:.6g}, wall_s {pair['parent']['wall_s']:.6g} -> "
                  f"{pair['change']['wall_s']:.6g}", file=sys.stderr, flush=True)
        workloads[workload] = pairs

    made_by = (f"python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workloads {' '.join(args.workloads)} "
               f"--pairs {args.pairs} --first-seed {args.first_seed}")
    report = {
        "schema": 1,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "made_by": made_by,
        "hardware": hardware(),
        "note": args.note,
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
        "workloads": workloads,
        "summary": {workload: summarize(pairs, metrics) for workload, pairs in workloads.items()},
    }
    for workload, summary in report["summary"].items():
        for name in metrics:
            entry = summary[name]
            print(f"{workload} {name}: {entry['verdict']} (median ratio {entry['median_ratio']}, "
                  f"change lower in {entry['change_lower_in']}/{summary['pairs']})", file=sys.stderr)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
