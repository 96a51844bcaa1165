"""CPU-speed calibration, so that speed changes of the machine do not read
as changes of turbulink.

On a shared VM the speed a process gets can change by a factor of about two,
sometimes within a second and sometimes for minutes, and process CPU time
follows wall time, so neither clock corrects for it.  The benchmark
therefore times a fixed calibration block of its own, independent of
turbulink: some interpreted Python, a small complex matrix product and a
scipy ``quad`` with a Python integrand, the three kinds of work turbulink's
layers spend their time in.  The client takes a sample right before and
right after each timed job and each set-up process, and scales that time by
``REFERENCE_S / mean(samples)``: a scaled time reads as seconds on a machine
where one block takes ``REFERENCE_S``.  A job that runs for seconds sees
many speed changes that its neighbouring samples miss, so an in-process job
is also sampled while it runs (Ticker), more samples follow a longer job
(samples_after), and a job is scaled by every sample taken within one job
length of it (window_scale).  The unscaled times are printed too.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

# Seconds one calibration block takes on a 2-vCPU x86 VM in its faster state.
REFERENCE_S = 0.005
# Added to the window on each side, so that the samples right before and
# after a job always fall in it.
SLACK_S = 0.05
# After a job, calibrate for about this share of its latency, in
# MIN_AFTER to MAX_AFTER samples.
AFTER_SHARE = 0.05
MIN_AFTER = 2
MAX_AFTER = 10
# Ticker period: wall seconds between samples taken while a job runs.
PERIOD_S = 0.2

_state: dict = {}
# True while a sample runs, so that a Ticker does not sample inside it.
_sampling = False


def _setup() -> dict:
    if not _state:
        import numpy as np
        from scipy.integrate import quad

        rng = np.random.default_rng(0)
        _state["matrix"] = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        _state["quad"] = quad
    return _state


def _block(state: dict) -> float:
    total = 0.0
    table: dict = {}
    for i in range(18000):
        total += math.sqrt(i) * 0.5
        table[i & 63] = table.get(i & 63, 0) + 1
    matrix = state["matrix"]
    for _ in range(12):
        total += abs((matrix @ matrix).trace())
    for k in range(18):
        total += state["quad"](lambda x: math.exp(-x * x) * math.cos(k * x), 0.0, 3.0)[0]
    return total


def sample() -> float:
    """Seconds one calibration block takes now."""
    global _sampling
    state = _setup()
    _sampling = True
    try:
        start = time.perf_counter()
        _block(state)
        return time.perf_counter() - start
    finally:
        _sampling = False


def samples(count: int) -> list:
    return [sample() for _ in range(count)]


def samples_after(latency: float) -> int:
    """How many samples to take after a job of this latency."""
    return max(MIN_AFTER, min(MAX_AFTER, round(AFTER_SHARE * latency / REFERENCE_S)))


def timed_sample() -> tuple:
    """(end on the time.perf_counter clock, seconds) of one sample."""
    seconds = sample()
    return time.perf_counter(), seconds


def scale(calibration) -> float:
    """Factor from raw seconds to reference seconds, given the calibration
    samples taken around the timed work."""
    return REFERENCE_S / statistics.fmean(calibration)


def window_scale(start: float, end: float, timed_samples) -> float:
    """Scale for work that ran from start to end (perf_counter clock), from
    the timed samples that overlap [start - reach, end + reach], where reach
    is end - start + SLACK_S."""
    reach = end - start + SLACK_S
    near = [
        seconds for stop, seconds in timed_samples
        if stop >= start - reach and stop - seconds <= end + reach
    ]
    return scale(near)


class Ticker:
    """While active, appends a timed sample to timed_samples every PERIOD_S
    from a SIGALRM handler, which Python runs in the main thread between
    bytecodes, so also in the middle of a job; paused adds up the seconds
    the handler took, which the caller takes out of the job's latency."""

    def __init__(self, timed_samples: list):
        self.timed_samples = timed_samples
        self.paused = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if _sampling:  # a sample is running, or this handler already is
            return
        start = time.perf_counter()
        self.timed_samples.append(timed_sample())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
