"""Small statistics helpers shared by the benchmark and its spread report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """Highest sample with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that rank would fall under the median,
    so the maximum is reported instead.
    """
    ordered = sorted(values)
    if len(ordered) < 2 * TAIL_BEYOND:
        return float(ordered[-1])
    return float(ordered[len(ordered) - TAIL_BEYOND - 1])


def relative_iqr(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
