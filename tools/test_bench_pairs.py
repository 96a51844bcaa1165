"""The verdicts of `bench_pairs.py` on synthetic paired runs
(`python3 -m pytest tools`)."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

BOUND = 0.25
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # q3 - q1 = 0.04
WIDE = [1.5, 1.6, 2.5, 2.6, 1.7, 2.4, 1.8, 2.3, 1.9, 2.2]


def pairs(parent, change):
    return [{"seed": k, "first": "parent", "parent": {"m": p, "failed": 0, "correct": True},
             "change": {"m": c, "failed": 0, "correct": True}} for k, (p, c) in enumerate(zip(parent, change))]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # 10/10 lower and the medians 0.2 apart, five parent spreads
        (PARENT, [p - 0.2 for p in PARENT], "gain"),
        # 9/10 lower is enough; a tie counts for neither side
        (PARENT, [p - 0.2 for p in PARENT[:9]] + [PARENT[9]], "gain"),
        # 8/10 lower is not
        (PARENT, [p - 0.2 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], "flat"),
        # every pair lower, but by less than the parent's spread
        (PARENT, [p - 0.01 for p in PARENT], "flat"),
        # the median 30 % up against a bound of 25 %
        (PARENT, [1.3 * p for p in PARENT], "worse"),
        # the median 20 % up stays within the bound
        (PARENT, [1.2 * p for p in PARENT], "flat"),
        # a parent spread wider than the bound (q3 - q1 = 0.75 about a median
        # of 2.05) leaves a small change unresolved ...
        (WIDE, [p - 0.01 for p in WIDE], "unresolved"),
        (WIDE, [1.4] * 3 + [2.55] * 2 + [1.45] * 5, "unresolved"),
        # ... unless every change run lies below every parent run; a gain
        # still needs the medians apart by more than that spread
        (WIDE, [1.4] * 5 + [1.45] * 5, "flat"),
        (WIDE, [1.2] * 10, "gain"),
    ],
)
def test_verdict(parent, change, expected):
    assert bench_pairs.verdict(parent, change, BOUND) == expected
    summary = bench_pairs.summarize(pairs(parent, change), {"m": BOUND})
    assert summary["m"]["verdict"] == expected


def test_bounds_read_from_the_benchmark():
    tree = Path(__file__).resolve().parents[1]
    names, bounds, seconds = bench_pairs.benchmark(tree)
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert names == [w["name"] for w in spec["workloads"]] and seconds == spec["run_seconds"]
