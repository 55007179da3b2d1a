"""Summary statistics with the paper's trimming convention.

Figure 2's caption: "Each bar is based on at least 12 tests, only
including the results from the 8th- to the 92th-percentile.  The maximum
and minimum are marked with error lines."  :func:`trimmed` implements
that window; :class:`SummaryStats` carries both the trimmed mean and the
untrimmed extremes so the error lines can be drawn.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import List, NamedTuple, Sequence

from repro.telemetry.metrics import percentile


#: The paper's trimming window, in percentiles.
TRIM_LOW_PCT = 8.0
TRIM_HIGH_PCT = 92.0


def trimmed(values: Sequence[float]) -> List[float]:
    """Values within the 8th-92nd percentile window."""
    if not values:
        return []
    low_cut = percentile(values, TRIM_LOW_PCT)
    high_cut = percentile(values, TRIM_HIGH_PCT)
    return [value for value in values if low_cut <= value <= high_cut]


class SummaryStats(NamedTuple):
    """One bar of a Figure 2/5-style plot."""

    count: int
    mean: float          # trimmed mean (the bar height)
    minimum: float       # untrimmed (the lower error line)
    maximum: float       # untrimmed (the upper error line)
    median: float
    p95: float
    stdev: float
    p99: float = 0.0     # untrimmed tail, like p95

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.1f}ms "
                f"[{self.minimum:.1f}..{self.maximum:.1f}] "
                f"p50={self.median:.1f} p95={self.p95:.1f} "
                f"p99={self.p99:.1f}")


def summarize(values: Sequence[float]) -> SummaryStats:
    """Paper-style summary: trimmed central stats, untrimmed extremes."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    central = trimmed(values) or list(values)
    mean = reduce(add, central, 0) / len(central)
    variance = (reduce(add, [(value - mean) ** 2 for value in central], 0)
                / len(central)
                if len(central) > 1 else 0.0)
    return SummaryStats(
        count=len(values),
        mean=mean,
        minimum=min(values),
        maximum=max(values),
        median=percentile(central, 50),
        p95=percentile(list(values), 95),
        stdev=math.sqrt(variance),
        p99=percentile(list(values), 99),
    )
