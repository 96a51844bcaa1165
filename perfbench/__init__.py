"""turbulink benchmark: seeded workloads, end-to-end metrics and per-layer spans.

Run from the repository root with ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
