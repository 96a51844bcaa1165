"""Run one workload of the turbulink benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  turbulink is imported from ./src; nothing
is installed.  Each run starts fresh worker processes (perfbench/worker.py),
so every run pays interpreter start and imports like a user would.

--trace 0 prints the end-to-end metrics: set-up is measured in several fresh
processes and reported as their median; the last of them then sends the
seeded jobs in a closed loop.  --trace 1 runs the same jobs with spans
around the public functions of every layer, and prints the per-layer metrics
and the tracing overhead (the wrappers' per-call cost, timed in the traced
process, times the calls they made).  Every time is scaled to a reference
CPU speed by calibration samples taken right before and after it (see
perfbench/calib.py); the unscaled figures are printed too.  The last line
of standard output is one JSON object.  Scratch files go to ./.bench_work
and are removed at the end, except the spans of the last traced run of each
workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import calib, jobs as joblib, spans, stats  # noqa: E402
from perfbench.worker import SETUP_SAMPLES, monotonic, run_child  # noqa: E402

SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
CLI_METRICS = tuple(
    (f"cli.{command}.{stat}", unit)
    for command in joblib.CLI_COMMANDS
    for stat, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"))
)
PER_LAYER = (
    ("mathcore.series_product.calls", "count"),
    ("mathcore.series_product.self_s", "s"),
    ("schmidt.discrete_modes.calls", "count"),
    ("schmidt.discrete_modes.self_s", "s"),
    ("turbulence.integrated_l.calls", "count"),
    ("turbulence.integrated_l.self_s", "s"),
    ("turbulence.cn2_at.calls", "count"),
    ("lgmodes.c_coefficients.calls", "count"),
    ("lgmodes.c_coefficients.self_s", "s"),
    ("lgmodes.coefficient_stack.self_s", "s"),
    ("lgmodes.coupling_tensor.self_s", "s"),
    ("ipe.generator_parts.calls", "count"),
    ("ipe.generator_parts.self_s", "s"),
    ("ipe.generator_parts.hit_ratio", "1"),
    ("ipe.propagate.self_s", "s"),
    ("ipe.propagate.failed", "count"),
    ("ipe.cutoff_bracketing.self_s", "s"),
    ("ipe.distance_sweep.self_s", "s"),
    ("temporal.channel_kernel.analytic.calls", "count"),
    ("temporal.channel_kernel.analytic.self_s", "s"),
    ("temporal.channel_kernel.full_ipe.calls", "count"),
    ("temporal.channel_kernel.full_ipe.self_s", "s"),
    ("temporal.transmission_matrix.self_s", "s"),
    ("temporal.mode_trace.self_s", "s"),
    ("entanglement.propagate_pair.self_s", "s"),
    ("entanglement.channel_tensor.calls", "count"),
    ("entanglement.channel_tensor.self_s", "s"),
    ("entanglement.log_negativity.self_s", "s"),
    ("entanglement.fidelity_to_input.self_s", "s"),
    ("cli.import_s", "s"),
    *CLI_METRICS,
    ("trace.overhead_s", "s"),
    ("failed_frac", "1"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure the workload."""


class Session:
    """One benchmark invocation: a scratch directory and a deadline."""

    def __init__(self, root: str, workload: str, seed: int, rounds: int, cpus: list):
        self.root = root
        self.cpus = cpus
        self.workload = workload
        self.seed = seed
        self.rounds = rounds
        self.deadline = monotonic() + RUN_BUDGET_S
        base = os.path.join(root, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        self.env["TMPDIR"] = self.workdir
        self.count = 0

    def remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s")
        return left

    def child(self, argv) -> tuple:
        """Run a child; returns (wall seconds, peak RSS MB, spawn time,
        calibration samples taken right before the spawn)."""
        self.count += 1
        base = os.path.join(self.workdir, f"child_{self.count:02d}")
        before = calib.samples(SETUP_SAMPLES)
        start = monotonic()
        code, rss = run_child(argv, self.root, self.remaining(), base + ".stdout",
                              base + ".stderr", env=self.env, group=True)
        wall = monotonic() - start
        if code != 0:
            with open(base + ".stderr", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise BenchError(f"{argv[1:4]} exited {code}:\n{tail}")
        return wall, rss, start, before

    def worker(self, *flags) -> dict:
        out = os.path.join(self.workdir, f"worker_{self.count + 1:02d}.json")
        argv = [sys.executable, "-m", "perfbench.worker", "--workload", self.workload,
                "--seed", str(self.seed), "--rounds", str(self.rounds),
                "--out", out, "--dir", self.workdir,
                "--cpus", ",".join(map(str, self.cpus)), *flags]
        _, rss, start, before = self.child(argv)
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup"] = (result["ready"] - start,
                           calib.scale(before + result["ready_calibration"]))
        result["rss_mb"] = rss
        return result

    def cold_import(self) -> tuple:
        """(wall seconds, calibration scale) of a cold import of the CLI."""
        wall, _, _, before = self.child([sys.executable, "-c", "import turbulink.cli"])
        return wall, calib.scale(before + calib.samples(SETUP_SAMPLES))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def latencies(result: dict, scaled: bool) -> list:
    """Job latencies; scaled, each by the calibration samples around it."""
    jobs = result["jobs"]
    if not scaled:
        return [job["latency_s"] for job in jobs]
    samples = result["calibration"]
    return [
        job["latency_s"]
        * calib.window_scale(job["start_s"], job["start_s"] + job["latency_s"], samples)
        for job in jobs
    ]


def summarize(result: dict, scaled: bool = False) -> dict:
    """End-to-end figures of one worker run, with scaled or raw latencies."""
    timed = result["jobs"]
    probes = result["probes"]
    latencies_s = latencies(result, scaled)
    failed = sum(not job["ok"] for job in timed)
    probes_failed = sum(not probe["ok"] for probe in probes)
    tail, percentile, count = stats.tail(latencies_s)
    if any("rss_mb" in job for job in timed):  # cli_cold: the largest child
        peak = max(job.get("rss_mb", 0.0) for job in timed)
    else:
        peak = result["rss_mb"]
    return {
        "wall_s": sum(latencies_s),
        "job_p50_s": statistics.median(latencies_s),
        "job_tail_s": tail,
        "tail_percentile": percentile,
        "jobs": count,
        "failed": failed,
        "probes": len(probes),
        "probes_failed": probes_failed,
        "failed_frac": (failed + probes_failed) / (count + len(probes)),
        "peak_rss_mb": peak,
    }


def layer_metrics(traced: dict, summary: dict, scale: float) -> tuple:
    """Per-layer figures from the traced worker's spans (probes included),
    times multiplied by scale, and the unscaled self times of the timed jobs
    alone for the design checks."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    recorded, counts = spans.read(traced["spans"])
    costs = traced["wrapper_costs"]
    scales = {"calls": 1.0, "self_s": scale, "failed": 1.0}
    for name, entry in spans.self_times(recorded, costs).items():
        for stat in ("calls", "self_s", "failed"):
            key = f"{name}.{stat}"
            if key in values:
                values[key] = entry[stat] * scales[stat]
    values["turbulence.cn2_at.calls"] = counts.get("turbulence.cn2_at", 0)
    hits, misses = traced.get("generator_cache", (0, 0))
    if hits + misses:
        values["ipe.generator_parts.hit_ratio"] = hits / (hits + misses)
    values["trace.overhead_s"] = spans.overhead(recorded, costs) * scale
    values["failed_frac"] = summary["failed_frac"]
    timed = [span for span in recorded if span[2] < len(traced["jobs"])]
    timed_self = {f"{name}.self_s": entry["self_s"]
                  for name, entry in spans.self_times(timed, costs).items()}
    return values, timed_self


def cli_metrics(result: dict, import_s: float) -> dict:
    values = {"cli.import_s": import_s}
    scaled = list(zip(result["jobs"], latencies(result, scaled=True)))
    for command in joblib.CLI_COMMANDS:
        runs = [(job, value) for job, value in scaled if job.get("command") == command]
        values[f"cli.{command}.wall_s"] = statistics.median(value for _, value in runs)
        values[f"cli.{command}.peak_rss_mb"] = max(job.get("rss_mb", 0.0) for job, _ in runs)
    return values


def design_checks(workload: str, values: dict, wall: float) -> list:
    """The shares the workload was designed around, from the traced run;
    values holds self times (or, for cli_cold, the cli metrics)."""
    def share(prefixes, exact=()):
        total = sum(
            value for name, value in values.items()
            if name.endswith(".self_s") and (name.startswith(prefixes) or name in exact)
        )
        return total / wall if wall else 0.0

    if workload == "link_budget":
        return [("turbulence.integrated_l self time / wall_s",
                 share((), ("turbulence.integrated_l.self_s",)))]
    if workload == "pair_robustness":
        return [("entanglement.* self time / wall_s", share(("entanglement.",)))]
    if workload == "mode_ladder":
        return [("ipe, lgmodes, mathcore, channel_kernel.full_ipe self time / wall_s",
                 share(("ipe.", "lgmodes.", "mathcore."),
                       ("temporal.channel_kernel.full_ipe.self_s",)))]
    checks = []
    for command in joblib.CLI_COMMANDS:
        wall_s = values[f"cli.{command}.wall_s"]
        checks.append((f"cli.import_s / cli.{command}.wall_s",
                       values["cli.import_s"] / wall_s if wall_s else 0.0))
    return checks


def environment(root: str, args, rounds: int, cpus: list) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "turbulink")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "thread_env": THREAD_ENV,
    }


def _calibration_line(samples) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (f"calibration around jobs: median {median * 1e3:.3f} ms (q1 {q1 * 1e3:.3f}, "
            f"q3 {q3 * 1e3:.3f}), reference {calib.REFERENCE_S * 1e3:.3f} ms")


def measure(session: Session, trace: bool) -> tuple:
    """Returns (metrics, correct, attempted, failed, report lines)."""
    workload = session.workload
    lines = []
    if workload == "cli_cold":
        setups = [session.cold_import() for _ in range(SETUP_REPEATS)]
        result = session.worker()
    elif trace:
        result = session.worker("--trace")
        setups = [result["setup"]]
    else:
        setups = [session.worker("--setup-only")["setup"] for _ in range(SETUP_REPEATS - 1)]
        result = session.worker()
        setups.append(result["setup"])
    setup_s = statistics.median(raw * scale for raw, scale in setups)
    summary = summarize(result, scaled=True)
    for job in result["jobs"] + result["probes"]:
        if not job["ok"]:
            label = job.get("probe") or job.get("command") or job["kind"]
            kind = "probe" if "probe" in job else "job"
            lines.append(f"{kind} failed: {label}: {job['error'][:300]}")
    lines.append(
        f"jobs {summary['jobs']} (failed {summary['failed']}), probes {summary['probes']} "
        f"(failed {summary['probes_failed']}), failed_frac {summary['failed_frac']:.4f}; "
        f"job_tail_s is the p{summary['tail_percentile']:.1f} of {summary['jobs']} jobs"
    )
    calibration = [seconds for _, seconds in result["calibration"]]
    lines.append(_calibration_line(calibration))
    raw = summarize(result)
    lines.append(f"unscaled: setup_s {statistics.median(raw for raw, _ in setups):.6g} s, "
                 f"wall_s {raw['wall_s']:.6g} s, job_p50_s {raw['job_p50_s']:.6g} s, "
                 f"job_tail_s {raw['job_tail_s']:.6g} s")
    if trace:
        if workload == "cli_cold":
            wall = summary["wall_s"]
            values = {name: 0.0 for name, _ in PER_LAYER}
            values.update(cli_metrics(result, setup_s))
            values["failed_frac"] = summary["failed_frac"]
            shares = values
            lines.append("trace: no in-process spans (each job is a child process)")
        else:
            values, shares = layer_metrics(result, summary, calib.scale(calibration))
            wall = raw["wall_s"]
            costs = result["wrapper_costs"]
            lines.append(f"wrapper cost per call: span {costs['span_s'] * 1e6:.3f} us, "
                         f"counted {costs['counted_s'] * 1e6:.3f} us (unscaled)")
            if result.get("absent"):
                lines.append(f"absent (reported as 0): {', '.join(result['absent'])}")
            keep = os.path.join(os.path.dirname(session.workdir), f"spans-{workload}.jsonl")
            shutil.copyfile(result["spans"], keep)
            lines.append(f"spans kept in {os.path.relpath(keep, session.root)}")
        for label, value in design_checks(workload, shares, wall):
            lines.append(f"design check: {label} = {value:.3f} (most: {value > 0.5})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = dict(summary, setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.append(f"failed_frac {summary['failed_frac']:.6f} 1")
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    return metrics, summary["failed"] == 0, summary["jobs"], summary["failed"], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="turbulink benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "turbulink", "__init__.py")):
        print("error: run from the repository root; src/turbulink not found", file=sys.stderr)
        return 2
    rounds = max(1, int(args.seconds // joblib.ROUND_SECONDS[args.workload]))
    # The whole run, children included, shares one CPU, so that calibration
    # samples see the speed of the CPU the timed work runs on.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    session = Session(root, args.workload, args.seed, rounds, cpus)
    try:
        metrics, correct, attempted, failed, lines = measure(session, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(root, args, rounds, cpus), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
