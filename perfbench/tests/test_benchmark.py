"""Tests of the benchmark's own machinery; run with

    python3 -m pytest perfbench/tests -q

from the repository root.  None of them imports turbulink.
"""
import json
import os
import sys
import time
import types

import numpy as np
import pytest

from perfbench import calib, checks, jobs, run, spans, stats
from perfbench.worker import run_closed_loop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(span_id, parent, name, start, end, failed=False, counted=0):
    return (span_id, parent, 0, name, start, end, failed, counted)


def test_self_time_subtracts_nested_children():
    recorded = [
        span(0, None, "job", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "b", 2.0, 3.0),
        span(3, 0, "a", 5.0, 6.0, failed=True),
        span(4, 0, "c", 7.0, 9.0),
    ]
    times = spans.self_times(recorded)
    assert times["job"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert times["a"] == {"calls": 2, "self_s": pytest.approx(2.0 + 1.0), "failed": 1}
    assert times["b"]["self_s"] == pytest.approx(1.0)
    assert times["c"]["self_s"] == pytest.approx(2.0)
    total = sum(entry["self_s"] for entry in times.values())
    assert total == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    recorded = [
        span(0, None, "parent", 0.0, 10.0),
        span(1, 0, "x", 1.0, 5.0),
        span(2, 0, "y", 3.0, 7.0),
        span(3, 0, "z", 9.0, 12.0),  # runs past its parent's end
    ]
    assert spans.self_times(recorded)["parent"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_takes_out_the_wrapper_cost():
    recorded = [
        span(0, None, "job", 0.0, 10.0),
        span(1, 0, "quad", 1.0, 4.0, counted=1000),
        span(2, 0, "quad", 5.0, 6.0),
    ]
    costs = {"span_s": 0.25, "counted_s": 1e-3}
    times = spans.self_times(recorded, costs)
    assert times["job"]["self_s"] == pytest.approx(10.0 - 4.0 - 2 * 0.25)
    assert times["quad"]["self_s"] == pytest.approx(3.0 - 1.0 + 1.0)
    assert spans.overhead(recorded, costs) == pytest.approx(3 * 0.25 + 1.0)
    # a cost larger than the span's own time leaves zero, not a negative time
    assert spans.self_times(recorded, {"span_s": 9.0, "counted_s": 0.0})["job"]["self_s"] == 0.0


def test_counted_calls_belong_to_the_enclosing_span():
    recorder = spans.SpanRecorder()
    count = recorder.wrap(spans.Target("m", "f", count_only=True), lambda x: x)

    def integrate():
        return sum(count(x) for x in range(5))

    count(0)  # outside any span: counted, attributed to none
    assert recorder.call("quad", integrate) == 10
    assert recorder.counts == {"m.f": 6}
    assert recorder.spans[0][7] == 5
    costs = spans.wrapper_costs(calls=200, repeats=3)
    assert costs["span_s"] >= 0.0 and costs["counted_s"] >= 0.0


def test_calibration_scales_to_reference_seconds():
    ref = calib.REFERENCE_S
    assert calib.scale([ref * 2] * 3) == pytest.approx(0.5)
    assert calib.scale([ref / 2, ref * 1.5]) == pytest.approx(1.0)
    assert calib.sample() > 0.0
    # one-second jobs every two seconds, a sample ending every second; the
    # block takes twice as long from t = 12 on
    samples = [(float(t), ref if t < 12 else 2 * ref) for t in range(0, 25)]
    records = [{"kind": "k", "start_s": 2.0 * i + 0.5, "latency_s": 1.0, "ok": True}
               for i in range(12)]
    result = {"jobs": records, "probes": [], "rss_mb": 1.0, "calibration": samples}
    # job 5 (10.5 to 11.5 s) is scaled by the samples at 10, 11 and 12 s
    assert run.latencies(result, scaled=True) == pytest.approx([1.0] * 5 + [0.75] + [0.5] * 6)
    assert run.summarize(result, scaled=True)["wall_s"] == pytest.approx(8.75)
    assert run.summarize(result)["wall_s"] == 12.0


def test_closed_loop_brackets_each_job_with_calibration():
    calibration = []
    records = run_closed_loop([{"kind": "k"}] * 3, lambda job: None, lambda job, out: [],
                              calibration=calibration)
    assert len(calibration) == 1 + 3 * calib.MIN_AFTER
    for record in records:
        start, end = record["start_s"], record["start_s"] + record["latency_s"]
        assert any(stop <= start for stop, _ in calibration)
        assert any(stop - seconds >= end for stop, seconds in calibration)
        assert calib.window_scale(start, end, calibration) > 0.0


def test_ticker_samples_during_a_job_and_takes_its_time_out():
    calibration = []

    def busy(job):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    with calib.Ticker(calibration) as ticker:
        records = run_closed_loop([{"kind": "k"}], busy, lambda job, out: [],
                                  calibration=calibration, ticker=ticker)
    start, latency = records[0]["start_s"], records[0]["latency_s"]
    during = [stop for stop, _ in calibration if start < stop < start + 0.5 + ticker.paused]
    assert len(during) >= 1 and ticker.paused > 0.0
    # the job busy-waits until half a second of wall time has passed, so
    # its latency is that minus the time the samples took
    assert latency == pytest.approx(0.5 - ticker.paused, abs=0.02)


def test_recorder_nests_and_round_trips(tmp_path):
    recorder = spans.SpanRecorder()

    def inner():
        return 7

    def outer():
        return recorder.call("inner", inner) + 1

    assert recorder.call("outer", outer) == 8
    with pytest.raises(ZeroDivisionError):
        recorder.call("boom", lambda: 1 / 0)
    path = tmp_path / "spans.jsonl"
    recorder.write(str(path))
    recorded, counts = spans.read(str(path))
    names = {s[0]: (s[1], s[3], s[6]) for s in recorded}
    assert names[0] == (None, "outer", False)
    assert names[1] == (0, "inner", False)
    assert names[2] == (None, "boom", True)
    assert counts == {}


def test_install_wraps_every_binding(monkeypatch):
    def helper(x):
        return x * 2

    home = types.ModuleType("fakepkg.home")
    home.helper = helper
    user = types.ModuleType("fakepkg.user")
    user.alias = helper
    user.call = lambda x: user.alias(x) + 1
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    recorder = spans.SpanRecorder()
    targets = [spans.Target("home", "helper"), spans.Target("home", "gone")]
    absent = spans.install(recorder, "fakepkg", targets)
    assert absent == ["home.gone"]
    assert user.call(3) == 7 and home.helper(1) == 2
    assert [s[3] for s in recorder.spans] == ["home.helper", "home.helper"]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))  # 40 samples
    value, percentile, count = stats.tail(reversed(values))
    assert (value, percentile, count) == (30, 75.0, 40)
    assert sum(v > value for v in values) == 10
    value, percentile, count = stats.tail(range(1, 12))
    assert (value, count) == (1, 11)
    assert percentile == pytest.approx(100.0 / 11.0)
    with pytest.raises(ValueError):
        stats.tail(range(10))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    first = jobs.job_list(workload, 7, rounds=2)
    assert json.dumps(first) == json.dumps(jobs.job_list(workload, 7, rounds=2))
    assert json.dumps(first) != json.dumps(jobs.job_list(workload, 8, rounds=2))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_run_has_enough_jobs_for_a_tail(workload):
    for seconds in (1, 15):
        rounds = max(1, int(seconds // jobs.ROUND_SECONDS[workload]))
        assert len(jobs.job_list(workload, 1, rounds)) > stats.TAIL_BEYOND


def test_link_budget_composition():
    round_jobs = jobs.job_list("link_budget", 3)
    links = [j for j in round_jobs if j["kind"] == "link"]
    tabulated = [j for j in links if "profile" in j]
    assert len(tabulated) / len(links) == pytest.approx(0.25, abs=0.05)
    assert sum(j.get("repeat", False) for j in links) == 3
    assert sum(j["kind"] == "distance_sweep" for j in round_jobs) == 1
    assert [j for j in links if j.get("canary")][0]["cn2"] == 1e-15


def test_wrong_output_is_counted_as_failed():
    good = np.full((4, 4), 0.5)
    bad = good.copy()
    bad[1, 2] = bad[2, 1] = 1.5  # a survival probability above one
    outputs = {0: good, 1: bad}

    def execute(job):
        if job["id"] == 2:
            raise RuntimeError("numeric failure")
        return outputs[job["id"]]

    records = run_closed_loop(
        [{"kind": "kernel", "id": i} for i in range(3)] * 4,
        execute,
        lambda job, out: checks.kernel(out),
    )
    assert [r["ok"] for r in records[:3]] == [True, False, False]
    assert "kernel entry > 1" in records[1]["error"]
    summary = run.summarize({"jobs": records, "probes": [], "rss_mb": 1.0})
    assert summary["failed"] == 8 and summary["jobs"] == 12
    assert summary["failed_frac"] == pytest.approx(8 / 12)


def test_canary_rejects_a_wrong_transmission_matrix():
    matrix = checks.PAPER_MATRIX.copy()
    out = {"kernel": np.full((8, 8), 0.9), "tmatrix": matrix,
           "tm_traces": np.full(4, 0.5), "traces": np.full(4, 0.5), "decay": 0.5}
    assert checks.link(out, "criterion_6") == []
    matrix[0, 0] -= 0.03
    assert any("criterion 6" in p for p in checks.link(out, "criterion_6"))


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
