"""Summary statistics used for the end-to-end metrics."""
from __future__ import annotations

TAIL_BEYOND = 10


def tail(values) -> tuple:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample_count).  With n samples that is the
    (n - 10)-th smallest value, the 100 * (n - 10) / n percentile.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {count}"
        )
    rank = count - TAIL_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / count, count
