"""Streaming latency aggregation for population-scale runs.

:class:`~repro.measure.stats.SummaryStats` retains every sample, which
is exactly right for a 40-query Figure 5 bar and exactly wrong for a
10^6-query population sweep — per-query record lists are the thing the
workload engine must never build.  :class:`LatencyHistogram` is the
replacement for large runs: fixed log-spaced bins (so microsecond noise
and 100-second tails share one instrument) plus **exact** count, sum,
minimum, and maximum.  Only quantiles are approximate, bounded by the
bin width (``BINS_PER_DECADE`` = 32 keeps adjacent Figure 5 bars in
distinct bins).

Histograms are mergeable: two histograms with the same binning combine
bin-by-bin, and merging is associative and commutative over the exact
fields, so shard aggregates folded in spec order reproduce the serial
run byte for byte — the same contract the experiment runtime already
enforces for rendered artifacts.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

#: Resolution of the log-spaced grid.  32 bins/decade = ~7.5% relative
#: bin width, finer than any latency claim the experiments assert.
BINS_PER_DECADE = 32

#: Lower edge of the first finite bin (ms).  Values at or below this
#: land in bin 0; values past the top land in the last bin.  The exact
#: min/max fields keep the true extremes regardless.
LOW_MS = 0.05

#: Decades covered above ``LOW_MS``: 0.05 ms .. 5,000,000 ms.
DECADES = 8

#: Index of the last bin; values past the top edge land here.
_TOP_BIN = BINS_PER_DECADE * DECADES - 1


class HistogramSummary(NamedTuple):
    """The digest-stable scalar view of one histogram."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    p999: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.1f}ms "
                f"[{self.minimum:.1f}..{self.maximum:.1f}] "
                f"p50={self.p50:.1f} p99={self.p99:.1f} "
                f"p99.9={self.p999:.1f}")


class LatencyHistogram:
    """Fixed log-spaced bins with exact count/sum/min/max.

    ``add`` is O(1) and allocation-free; ``merge`` requires identical
    binning (always true between instances of this class).  Instances
    pickle cleanly, so they travel as trial payloads through the
    sharded executor.
    """

    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    #: Number of finite bins.
    size = _TOP_BIN + 1

    def __init__(self) -> None:
        self.counts: List[int] = [0] * self.size
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- pickling (slots classes need explicit state) ------------------------

    def __getstate__(self) -> Tuple[List[int], int, float, float, float]:
        return (self.counts, self.count, self.total,
                self.minimum, self.maximum)

    def __setstate__(
            self, state: Tuple[List[int], int, float, float, float]) -> None:
        (self.counts, self.count, self.total,
         self.minimum, self.maximum) = state

    # -- ingestion -----------------------------------------------------------

    def add(self, value_ms: float) -> None:
        """Record one latency sample (milliseconds)."""
        # :meth:`_bin_index`, written out: two adds per simulated query.
        if value_ms <= LOW_MS:
            index = 0
        else:
            index = int(math.log10(value_ms / LOW_MS) * BINS_PER_DECADE)
            if index > _TOP_BIN:
                index = _TOP_BIN
        self.counts[index] += 1
        self.count += 1
        self.total += value_ms
        if value_ms < self.minimum:
            self.minimum = value_ms
        if value_ms > self.maximum:
            self.maximum = value_ms

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (same binning, exact)."""
        if len(other.counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histograms with different binning "
                f"({len(other.counts)} vs {len(self.counts)} bins)")
        for index, bucket in enumerate(other.counts):
            if bucket:
                self.counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @classmethod
    def _bin_index(cls, value_ms: float) -> int:
        if value_ms <= LOW_MS:
            return 0
        index = int(math.log10(value_ms / LOW_MS) * BINS_PER_DECADE)
        return index if index < cls.size else cls.size - 1

    @staticmethod
    def _bin_upper_edge(index: int) -> float:
        """Upper edge of bin ``index`` in ms."""
        return LOW_MS * 10.0 ** ((index + 1) / BINS_PER_DECADE)

    @classmethod
    def bin_bounds(cls, value_ms: float) -> Tuple[float, float]:
        """``(lower, upper)`` edges of the bin covering ``value_ms``.

        A reported quantile is its covering bin's midpoint clamped to
        the exact extremes, so it never leaves that bin: feeding it
        back here recovers everything the histogram actually knows
        about where the true quantile lies.
        """
        index = cls._bin_index(value_ms)
        return cls._bin_upper_edge(index - 1), cls._bin_upper_edge(index)

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (``q`` in [0, 1]), clamped to [min, max].

        Returns the geometric midpoint of the covering bin — an error
        bounded by half a bin width — except at the extremes, where the
        exact tracked minimum/maximum are authoritative.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target:
                lower = LOW_MS * 10.0 ** (index / BINS_PER_DECADE)
                upper = self._bin_upper_edge(index)
                mid = math.sqrt(lower * upper)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    def summary(self) -> HistogramSummary:
        """The scalar summary (safe on an empty histogram)."""
        if not self.count:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return HistogramSummary(
            count=self.count,
            mean=self.mean,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=self.quantile(0.50),
            p90=self.quantile(0.90),
            p99=self.quantile(0.99),
            p999=self.quantile(0.999),
        )

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (f"LatencyHistogram(n={self.count}, mean={self.mean:.2f}ms, "
                f"[{self.minimum:.2f}..{self.maximum:.2f}])")
