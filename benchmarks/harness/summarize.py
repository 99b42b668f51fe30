"""Statistics the harness reports: medians with quartiles, the
``unresolved`` rule, and the highest percentile a sample supports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: percentiles the tail helper may answer with, lowest first
PERCENTILE_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)
#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` exactly as the driver computes them
    (``statistics.quantiles(values, n=4)``); a single value is its own
    quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def summarize(values: Sequence[float], bound: Optional[float] = None) -> Dict:
    """Median, quartiles, min and n of one host-time metric.

    With a ``bound``, a sample whose spread exceeds it is marked
    ``unresolved``: its median is printed but is not a number to compare.
    """
    q1, _q2, q3 = quartiles(values)
    row = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "min": min(values), "n": len(values), "spread": spread(values)}
    row["unresolved"] = bound is not None and row["spread"] > bound
    return row


def highest_supported_percentile(n: int,
                                 ladder: Sequence[float] = PERCENTILE_LADDER,
                                 min_beyond: int = MIN_BEYOND
                                 ) -> Optional[float]:
    """The highest percentile of ``ladder`` with at least ``min_beyond`` of
    ``n`` samples beyond it (``None`` when not even the lowest has)."""
    best = None
    for fraction in ladder:
        # the count strictly above a nearest-rank percentile, in integer
        # arithmetic so 0.99 of 1000 leaves exactly 10 beyond
        beyond = n - math.ceil(round(fraction * n, 6))
        if beyond >= min_beyond:
            best = fraction
    return best


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``baseline`` as a share of the
    baseline (negative = better)."""
    if baseline == 0:
        return 0.0 if candidate == 0 else math.inf
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change
