"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10   # a tail percentile needs this many samples beyond it


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(values, q: float,
                    min_beyond: int = MIN_BEYOND) -> float | None:
    """The q-th percentile, or None when fewer than `min_beyond` samples lie
    strictly beyond it: a tail read from fewer samples is noise."""
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= min_beyond else None


def median(values) -> float | None:
    return statistics.median(values) if values else None
