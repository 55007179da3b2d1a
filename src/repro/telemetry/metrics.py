"""A small in-process metrics registry: counters and histograms.

Modeled on the Prometheus client-library data model — instruments are
registered once by name, carry a help string, and hold one sample per
label combination — but kept dependency-free and deterministic.  The
registry never reads a clock and never draws randomness, so recording a
metric cannot perturb the simulation.

Label values are stringified and samples are keyed by the sorted
``(key, value)`` tuple, so ``inc(host="a", link="b")`` and
``inc(link="b", host="a")`` hit the same sample.

This stdlib-only leaf also owns the two ways the repo turns latencies
into percentiles: :func:`percentile` over exact samples, and
:class:`BucketCell`, the fixed-bucket aggregate behind histogram
samples, time-series windows, the exporters and the SLO readers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Latency-oriented default buckets, in milliseconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, float("inf"))


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the sample selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        if len(labels) == 1:
            # Fast path for the overwhelmingly common one-label case:
            # sorting a single pair is the identity, so the key can be
            # built directly (same key bytes as ``_label_key``).
            (name, value), = labels.items()
            key: LabelKey = ((name, value if type(value) is str
                              else str(value)),)
        else:
            key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs in stable sorted order."""
        yield from sorted(self._samples.items())

    def merge_from(self, other: "Counter") -> None:
        """Add every sample of ``other`` into this counter."""
        for key, value in sorted(other._samples.items()):
            self._samples[key] = self._samples.get(key, 0.0) + value

    def __repr__(self) -> str:
        return f"Counter({self.name}, {len(self._samples)} series)"


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of exact samples (pct in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of [0, 100]")
    ordered = sorted(values)
    rank = (pct / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    # This form never leaves [ordered[low], ordered[high]] under floating
    # point, unlike a*(1-w) + b*w.
    return ordered[low] + (ordered[high] - ordered[low]) * weight


class BucketCell:
    """One fixed-bucket latency aggregate: count, sum, per-bucket counts.

    The single owner of the layout every windowed series, histogram
    sample, exporter and SLO reader shares.  Bucket ``i`` counts values
    in ``(bounds[i-1], bounds[i]]`` (Prometheus ``le`` semantics);
    ``bounds`` must be sorted and end in ``+Inf``.  Cells are slotted
    and pickle as-is, so they cross the executor's process boundary
    inside telemetry snapshots.
    """

    __slots__ = ("bounds", "count", "total", "counts")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS,
                 count: int = 0, total: float = 0.0) -> None:
        self.bounds = bounds
        self.count = count
        self.total = total
        self.counts = [0] * len(bounds)

    @classmethod
    def from_sparse(cls, buckets: Iterable[Tuple[float, int]],
                    count: int, total: float) -> "BucketCell":
        """Rebuild a default-layout cell from ``(le, in_bucket)`` pairs
        that list only the occupied buckets (the time-series form)."""
        cell = cls(DEFAULT_BUCKETS, count, total)
        for bound, in_bucket in buckets:
            cell.counts[bisect_left(cell.bounds, bound)] += in_bucket
        return cell

    def observe(self, value: float) -> None:
        """Record one value."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def merge(self, other: "BucketCell") -> None:
        """Add ``other`` bucket-wise (same layout)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"bucket mismatch: {self.bounds} vs {other.bounds}")
        self.count += other.count
        self.total += other.total
        for index, in_bucket in enumerate(other.counts):
            self.counts[index] += in_bucket

    def cumulative(self) -> List[int]:
        """Running bucket counts; the last entry covers every value."""
        return list(accumulate(self.counts))

    def quantile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (pct in [0, 100]).

        Prometheus-style: find the bucket the rank falls in and
        interpolate linearly between its lower and upper bound.  A
        rank inside the ``+Inf`` bucket returns the last finite bound,
        the best estimate an unbounded tail allows.
        """
        target = (pct / 100.0) * self.count
        lower = 0.0
        below = 0
        for bound, reached in zip(self.bounds, self.cumulative()):
            if reached >= target:
                if bound == math.inf:
                    return lower
                if reached == below:
                    return bound
                fraction = (target - below) / (reached - below)
                return lower + (bound - lower) * fraction
            below = reached
            if bound != math.inf:
                lower = bound
        return lower


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is ≥ v when
    exported; internally each observation lands in exactly one bucket
    and cumulation happens at read time.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        # The +Inf bucket is always there, whatever the caller passed.
        bounds = sorted({float(b) for b in buckets} | {math.inf})
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(bounds)
        self._samples: Dict[LabelKey, BucketCell] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the selected sample."""
        key = _label_key(labels)
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = BucketCell(self.buckets)
        sample.observe(value)

    def samples(self) -> Iterator[Tuple[LabelKey, BucketCell]]:
        """``(label_key, sample)`` pairs in stable sorted order."""
        yield from sorted(self._samples.items(), key=lambda item: item[0])

    def merge_from(self, other: "Histogram") -> None:
        """Add every sample of ``other``; bucket layouts must match."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r} bucket mismatch: "
                f"{self.buckets} vs {other.buckets}")
        for key, theirs in sorted(other._samples.items(),
                                  key=lambda item: item[0]):
            mine = self._samples.get(key)
            if mine is None:
                mine = self._samples[key] = BucketCell(self.buckets)
            mine.merge(theirs)

    def __repr__(self) -> str:
        observed = sum(s.count for _, s in self.samples())
        return f"Histogram({self.name}, {observed} observations)"


class MetricsRegistry:
    """Get-or-create home for every instrument in a run.

    Layers call ``registry.counter("repro_stub_queries_total", ...)`` at
    the point of use; the first call registers the instrument and later
    calls return the same object, so instrumentation sites need no setup
    ordering.  Re-registering a name as a different kind is a bug and
    raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, creating it on first use."""
        return self._get_or_create(Counter, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name``, creating it on first use.

        ``buckets`` only applies on creation; later callers share the
        instrument as registered.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(name, help, buckets)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def instruments(self) -> List[object]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry.

        Counters add, histograms add bucket-wise.  Instruments missing
        here are created with the incoming help text (and bucket layout);
        a name registered as a different kind in the two registries
        raises, same as re-registering locally would.
        """
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            if isinstance(theirs, Counter):
                self.counter(name, theirs.help).merge_from(theirs)
            elif isinstance(theirs, Histogram):
                self.histogram(name, theirs.help,
                               theirs.buckets).merge_from(theirs)
            else:  # pragma: no cover - registry only stores these kinds
                raise TypeError(
                    f"metric {name!r} has unmergeable type "
                    f"{type(theirs).__name__}")

    def _get_or_create(self, cls: type, name: str, help: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
