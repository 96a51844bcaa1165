"""In-memory span recorder for the traced run, and self-time derivation.

The recorder wraps library functions from the outside: each wrapped call
records (span id, parent span id, job id, name, start, end, failed, counted).
Spans stay in memory until the run ends and are then written as JSON lines.
A count-only target records no span, only a call count, so that it adds no
child interval to its caller (used for integrand evaluations); `counted` is
the number of such calls made directly inside the span.

The wrappers cost time that falls in the callers' spans.  wrapper_costs()
measures it per call in the traced process itself, and self_times() takes
it out of each span's self time: the cost of each direct child span and of
each counted call.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap, named by the module that defines it."""

    module: str
    name: str
    count_only: bool = False
    # maps (args, kwargs) to a span name; default "<module>.<name>"
    namer: Callable | None = None

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.name}"


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.job_id: int | None = None
        self._stack: list = []
        self._counted: list = []

    def wrap(self, target: Target, function):
        if target.count_only:
            name = target.span_name

            @functools.wraps(function)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                if self._stack:
                    self._counted[self._stack[-1]] += 1
                return function(*args, **kwargs)

            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span_name
            return self.call(name, function, *args, **kwargs)

        return traced

    def call(self, name: str, function, *args, **kwargs):
        """Run function inside a span called name."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._counted.append(0)
        self._stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.job_id, name, start, end, failed,
                                   self._counted[span_id])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def wrapper_costs(calls: int = 10000, repeats: int = 5) -> dict:
    """Seconds per call that a span wrapper and a count-only wrapper add,
    timed on a one-argument no-op: the median of several repeats, never
    negative."""
    def noop(value):
        return value

    def per_call(function) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                function(1.0)
            times.append(time.perf_counter() - start)
        return statistics.median(times) / calls

    recorder = SpanRecorder()
    bare = per_call(noop)
    span = per_call(recorder.wrap(Target("bench", "noop"), noop))
    # inside a span, as the counted integrand evaluations are
    counted = recorder.call(
        "outer", per_call, recorder.wrap(Target("bench", "noop", count_only=True), noop)
    )
    return {"span_s": max(0.0, span - bare), "counted_s": max(0.0, counted - bare)}


def install(recorder: SpanRecorder, package: str, targets) -> list:
    """Wrap each target under every module-level name in the package that
    binds it; returns the span names of targets that no longer exist."""
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    absent = []
    for target in targets:
        home = sys.modules.get(f"{package}.{target.module}")
        original = getattr(home, target.name, None) if home else None
        if not callable(original):
            absent.append(target.span_name)
            continue
        wrapper = recorder.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return absent


def read(path: str) -> tuple:
    """Spans and counts written by SpanRecorder.write."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                counts = item["counts"]
            else:
                spans.append(tuple(item))
    return spans, counts


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def overhead(spans, costs: dict) -> float:
    """Seconds the wrappers added to a traced run."""
    return sum(costs["span_s"] + span[7] * costs["counted_s"] for span in spans)


def self_times(spans, costs=None) -> dict:
    """Per span name: calls, self_s (duration minus the part of it covered by
    child spans and minus the wrapper cost of its direct child spans and
    counted calls, at least zero) and failed (spans that ended with an
    exception).  costs is a wrapper_costs() result; None means no cost."""
    span_cost = costs["span_s"] if costs else 0.0
    counted_cost = costs["counted_s"] if costs else 0.0
    children = defaultdict(list)
    for span_id, parent, _job, _name, start, end, _failed, _counted in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
    for span_id, _parent, _job, name, start, end, failed, counted in spans:
        entry = totals[name]
        entry["calls"] += 1
        own = (end - start) - _covered(start, end, children[span_id])
        own -= len(children[span_id]) * span_cost + counted * counted_cost
        entry["self_s"] += max(0.0, own)
        entry["failed"] += int(failed)
    return dict(totals)
