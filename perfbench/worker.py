"""One workload process: set-up, then a closed loop with one client.

    python -m perfbench.worker --workload NAME --seed N --rounds R --out FILE
        --dir WORKDIR --cpus LIST [--setup-only] [--trace]

The parent (perfbench/run.py) starts this as a fresh process.  The worker
imports turbulink and prepares the workload's inputs, notes the monotonic
clock (system-wide on Linux, so the parent can subtract its spawn time),
then sends the seeded jobs one at a time, timing each call into turbulink
and checking its output outside the timed region.  Calibration samples
(perfbench/calib.py) are taken right after set-up and around each job.
Known-failure probes run last and are not timed.  Everything is written as
JSON to --out.  --cpus lists every CPU of the run; the worker itself runs on
the one CPU the parent pinned it to.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

from perfbench import calib, checks, jobs as joblib, spans
from perfbench.spans import SpanRecorder, Target, install

SPEED_OF_LIGHT = 299792458.0
CLI_TIMEOUT_S = 150.0
# calibration samples taken right after set-up, and by the parent right
# before it starts a process
SETUP_SAMPLES = 3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kernel_span(args, kwargs) -> str:
    fidelity = kwargs.get("fidelity", args[4] if len(args) > 4 else None)
    return f"temporal.channel_kernel.{getattr(fidelity, 'value', 'analytic')}"


# Public functions wrapped in the traced run, one per layer boundary.
TARGETS = (
    Target("mathcore", "series_product"),
    Target("schmidt", "discrete_modes"),
    Target("turbulence", "integrated_l"),
    Target("turbulence", "cn2_at", count_only=True),
    Target("lgmodes", "c_coefficients"),
    Target("lgmodes", "coefficient_stack"),
    Target("lgmodes", "coupling_tensor"),
    Target("ipe", "generator_parts"),
    Target("ipe", "propagate"),
    Target("ipe", "cutoff_bracketing"),
    Target("ipe", "distance_sweep"),
    Target("temporal", "channel_kernel", namer=_kernel_span),
    Target("temporal", "transmission_matrix"),
    Target("temporal", "mode_trace"),
    Target("entanglement", "propagate_pair"),
    Target("entanglement", "channel_tensor"),
    Target("entanglement", "log_negativity"),
    Target("entanglement", "fidelity_to_input"),
)


def run_child(argv, cwd: str, timeout: float, stdout_path: str, stderr_path: str,
              env=None, group: bool = False) -> tuple:
    """Run a child to completion; returns (exit code, peak RSS in MB).

    The child's rusage comes from os.wait4, which covers only that child and
    the children it waited for.  A child still running at the timeout is
    killed and reported with exit code None; with group=True the child leads
    a new process group and the whole group is killed, so nothing it started
    outlives it.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env,
                                start_new_session=group)

    def kill():
        try:
            if group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None
    return code, usage.ru_maxrss / 1024.0


def run_closed_loop(job_list, execute, check, recorder=None, first_id=0,
                    calibration=None, ticker=None) -> list:
    """Send each job after the previous one finished; time execute() only.
    Spans recorded during a job carry its id, first_id + its index.  Given a
    calibration list, calib.timed_sample()s are appended to it before the
    first job and right after each job, before its check.  Given an active
    calib.Ticker, the time its samples took during a job is not latency."""
    records = []
    if calibration is not None:
        calibration.append(calib.timed_sample())
    for index, job in enumerate(job_list, start=first_id):
        error = None
        output = None
        if recorder is not None:
            recorder.job_id = index
        paused = ticker.paused if ticker is not None else 0.0
        start = time.perf_counter()
        try:
            if recorder is None:
                output = execute(job)
            else:
                output = recorder.call(f"job.{job['kind']}", execute, job)
        except Exception as exc:  # a failing job is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if ticker is not None:
            latency -= ticker.paused - paused
        if calibration is not None:
            calibration.extend(calib.timed_sample() for _ in range(calib.samples_after(latency)))
        if error is None:
            try:
                problems = check(job, output)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems)
        record = {"kind": job["kind"], "start_s": start, "latency_s": latency,
                  "ok": error is None, "error": error}
        for key in ("command", "probe", "canary"):
            if key in job:
                record[key] = job[key]
        if isinstance(output, dict) and "rss_mb" in output:
            record["rss_mb"] = output["rss_mb"]
        records.append(record)
    return records


class Library:
    """In-process workloads: link_budget, pair_robustness, mode_ladder."""

    def __init__(self, workload: str, workdir: str, job_list: list):
        from turbulink import entanglement, ipe, lgmodes, schmidt, temporal, turbulence

        self.entanglement, self.ipe, self.lgmodes = entanglement, ipe, lgmodes
        self.temporal, self.turbulence = temporal, turbulence
        carrier = 2.0 * math.pi * SPEED_OF_LIGHT / joblib.WAVELENGTH_M
        self.spec = schmidt.BiphotonSpec(sigma_a=10e12, sigma_b=80e12, omega_p=2.0 * carrier)
        self.generator_cache = getattr(ipe, "generator_parts", None)
        for index, job in enumerate(job_list):
            if "profile" in job:
                path = os.path.join(workdir, f"profile_{index}.csv")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("height_m,cn2\n")
                    handle.writelines(f"{h!r},{c!r}\n" for h, c in job["profile"])
                job["profile_csv"] = path
        if workload == "pair_robustness":
            paper = self.geometry(joblib.PAPER_LINK["distance_m"], joblib.PAPER_LINK["waist_m"])
            self.kernels = {
                cn2: temporal.channel_kernel(
                    self.spec, turbulence.TurbulenceProfile.from_constant(cn2), paper,
                    grid_order=64,
                )
                for cn2 in joblib.PAIR_CN2 + (0.0,)
            }

    def geometry(self, distance: float, waist: float):
        return self.turbulence.LinkGeometry(
            path_length=distance,
            transmitter_height=joblib.ENDPOINT_HEIGHT_M,
            receiver_height=joblib.ENDPOINT_HEIGHT_M,
            waist=waist,
            wavelength=joblib.WAVELENGTH_M,
        )

    def cache_info(self):
        info = getattr(self.generator_cache, "cache_info", None)
        return None if info is None else list(info())[:2]  # hits, misses

    def execute(self, job: dict):
        return getattr(self, "_" + job["kind"])(job)

    def check(self, job: dict, out) -> list:
        return getattr(self, "_check_" + job["kind"])(job, out)

    def _link(self, job):
        Profile = self.turbulence.TurbulenceProfile
        if "profile_csv" in job:
            profile = Profile.from_csv(job["profile_csv"])
        else:
            profile = Profile.from_constant(job["cn2"])
        geom = self.geometry(job["distance_m"], job["waist_m"])
        kernel = self.temporal.channel_kernel(self.spec, profile, geom, grid_order=job["grid_order"])
        tm = self.temporal.transmission_matrix(kernel, self.spec, job["max_mode"])
        traces = [self.temporal.mode_trace(kernel, self.spec, n) for n in range(job["max_mode"] + 1)]
        decay = self.ipe.analytic_decay(profile, geom)
        return {"kernel": kernel.matrix, "tmatrix": tm.matrix, "tm_traces": tm.traces,
                "traces": traces, "decay": decay}

    def _check_link(self, job, out):
        return checks.link(out, job.get("canary"))

    def _distance_sweep(self, job):
        return self.ipe.distance_sweep(job["cn2_values"], job["distances_m"], joblib.WAVELENGTH_M)

    def _check_distance_sweep(self, job, rows):
        return checks.distance_sweep(rows, len(job["cn2_values"]) * len(job["distances_m"]))

    def _scan(self, job):
        kernel = self.kernels[job["cn2"]]
        rows = self.entanglement.robustness_scan(
            kernel, self.spec, job["fixed_mode"], range(job["n_top"]), dim=job["dim"]
        )
        out = {"rows": [(r.n, r.en_initial, r.en_final, r.fidelity, r.degenerate,
                         r.transmitted_mass) for r in rows]}
        if job.get("canary") == "criterion_8":
            ent = self.entanglement
            state = ent.TwoPhotonState.mode_pair(0, 3, 12)
            rho, _ = ent.propagate_pair(state, self.kernels[0.0], self.spec)
            out["zero_turbulence_fidelity"] = ent.fidelity_to_input(rho, state)
        return out

    def _check_scan(self, job, out):
        return checks.scan(out["rows"], job["dim"], job.get("canary"),
                           out.get("zero_turbulence_fidelity"))

    def _propagate(self, job):
        ipe, lgmodes = self.ipe, self.lgmodes
        basis = lgmodes.ModeBasis(job["cutoff"])
        rho0 = ipe.DensityMatrix.pure(basis, lgmodes.LGIndex(l=0, r=0))
        profile = self.turbulence.TurbulenceProfile.from_constant(job["cn2"])
        geom = self.geometry(job["distance_m"], job["waist_m"])
        config = ipe.SolverConfig(
            cutoff=job["cutoff"],
            scheme=ipe.PropagationScheme(job["scheme"]),
            check_convergence=job["check_convergence"],
        )
        rho = ipe.propagate(rho0, profile, geom, config)
        out = {"matrix": rho.matrix, "fundamental": basis.fundamental,
               "population": ipe.lowest_mode_probability(rho)}
        if job.get("canary") == "criterion_9_cutoff_0":
            out["analytic"] = ipe.analytic_decay(profile, geom)
        return out

    def _check_propagate(self, job, out):
        problems = checks.density(out["matrix"], out["fundamental"])
        if "analytic" in out:
            problems += checks.cutoff_zero(out["population"], out["analytic"])
        return problems

    def _bracketing(self, job):
        return self.ipe.cutoff_bracketing(job["l_values"], job["cutoffs"])

    def _check_bracketing(self, job, results):
        exact, lindblad = {}, {}
        for (scheme, cutoff), values in results.items():
            family = exact if scheme.value == "truncated_exact" else lindblad
            family[cutoff] = values
        return checks.bracketing(exact, lindblad)

    def _coupling_tensor(self, job):
        tensor = self.lgmodes.coupling_tensor(
            self.lgmodes.ModeBasis(job["cutoff"]), job["z_m"], job["cn2"],
            joblib.PAPER_LINK["waist_m"], joblib.WAVELENGTH_M,
        )
        return tensor.entries

    def _check_coupling_tensor(self, job, entries):
        return checks.coupling(entries)

    def _full_ipe(self, job):
        kernel = self.temporal.channel_kernel(
            self.spec,
            self.turbulence.TurbulenceProfile.from_constant(job["cn2"]),
            self.geometry(job["distance_m"], joblib.PAPER_LINK["waist_m"]),
            grid_order=job["grid_order"],
            fidelity=self.temporal.KernelFidelity.FULL_IPE,
            cutoff=job["cutoff"],
        )
        return kernel.matrix

    def _check_full_ipe(self, job, matrix):
        return checks.kernel(matrix)


class Cli:
    """cli_cold: each job is a cold `python -m turbulink.cli` child."""

    def __init__(self, workdir: str, cpus: list):
        self.workdir = workdir
        self.count = 0
        self.cpus = cpus
        self.threads = str(min(2, len(cpus)))

    def cache_info(self):
        return None

    def _argv(self, job: dict, out_dir: str, threads: str) -> list:
        argv = [sys.executable, "-m", "turbulink.cli"]
        if "config" in job:
            path = os.path.join(out_dir, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(job["config"])
            argv += ["--config", path]
        argv += ["--set", f"output_dir={out_dir}"]
        for key, value in job["sets"].items():
            argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
        command = job["command"]
        if command.startswith("sweep_"):
            argv += ["--threads", threads, "sweep", command.split("_", 1)[1]]
        else:
            argv.append(command)
        return argv

    def _run(self, job: dict, threads: str) -> dict:
        self.count += 1
        out_dir = os.path.join(self.workdir, f"cli_{self.count:03d}")
        os.makedirs(out_dir)
        stdout, stderr = os.path.join(out_dir, "stdout"), os.path.join(out_dir, "stderr")
        pinned = os.sched_getaffinity(0)
        if threads != "1":  # a multi-threaded child gets the CPUs of the run
            os.sched_setaffinity(0, self.cpus)
        try:
            code, rss = run_child(self._argv(job, out_dir, threads), self.workdir,
                                  CLI_TIMEOUT_S, stdout, stderr)
        finally:
            os.sched_setaffinity(0, pinned)
        return {"exit": code, "rss_mb": rss, "out_dir": out_dir,
                "stdout": stdout, "stderr": stderr}

    def execute(self, job: dict) -> dict:
        result = self._run(job, self.threads)
        if result["exit"] != 0:
            with open(result["stderr"], encoding="utf-8", errors="replace") as handle:
                message = handle.read().strip().splitlines()[-1:] or ["(no stderr)"]
            raise RuntimeError(f"exit {result['exit']}: {message[0]}")
        return result

    def check(self, job: dict, out: dict) -> list:
        with open(out["stdout"], encoding="utf-8") as handle:
            stdout = handle.read()
        problems = checks.cli_output(job["command"], out["out_dir"], stdout, job["sets"])
        if job["command"] == "sweep_tmatrix":
            # the same sweep with one worker thread must give the same bytes
            reference = self._run(job, "1")
            name = "sweep_tmatrix.csv"
            with open(os.path.join(out["out_dir"], name), "rb") as a, \
                    open(os.path.join(reference["out_dir"], name), "rb") as b:
                if reference["exit"] != 0 or a.read() != b.read():
                    problems.append(f"{name} differs from the --threads 1 sweep")
        return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs of the run")
    args = parser.parse_args(argv)

    job_list = joblib.job_list(args.workload, args.seed, args.rounds)
    if args.workload == "cli_cold":
        runner = Cli(args.dir, sorted(int(cpu) for cpu in args.cpus.split(",")))
    else:
        runner = Library(args.workload, args.dir, job_list)
    result = {"ready": monotonic(), "ready_calibration": calib.samples(SETUP_SAMPLES)}
    if not args.setup_only:
        recorder = None
        if args.trace:
            recorder = SpanRecorder()
            result["absent"] = install(recorder, "turbulink", TARGETS)
        cache_before = runner.cache_info()
        result["calibration"] = []
        # In-process jobs are also sampled while they run; a traced run is
        # not, so that sampling stays out of the spans, nor is cli_cold,
        # whose jobs run in children on the same CPU.
        if args.trace or args.workload == "cli_cold":
            ticker = None
        else:
            ticker = calib.Ticker(result["calibration"])
        with ticker or contextlib.nullcontext():
            result["jobs"] = run_closed_loop(job_list, runner.execute, runner.check, recorder,
                                             calibration=result["calibration"], ticker=ticker)
        cache_after = runner.cache_info()
        # probes are expected to fail, so they need no output check
        result["probes"] = run_closed_loop(
            joblib.probe_list(args.workload), runner.execute, lambda job, out: [], recorder,
            first_id=len(job_list),
        )
        if cache_before is not None:
            result["generator_cache"] = [a - b for a, b in zip(cache_after, cache_before)]
        if recorder is not None:
            result["spans"] = args.out + ".spans"
            recorder.write(result["spans"])
            result["wrapper_costs"] = spans.wrapper_costs()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
