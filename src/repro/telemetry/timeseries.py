"""Streaming time-series: windowed counters and latency aggregates.

The metrics registry answers "how much, in total"; this module answers
"when".  Values land in fixed *simulated-time* windows (``window_ms``
wide, indexed ``int(t_ms // window_ms)``), so a series is a sparse map
from window index to a small aggregate cell:

* **counter** series — one float per window (events in that window);
* **latency** series — one :class:`~repro.telemetry.metrics.BucketCell`
  per window (count, sum, and counts over
  :data:`~repro.telemetry.metrics.DEFAULT_BUCKETS`), enough to estimate
  any per-window quantile and to count threshold exceedances for
  burn-rate rules without retaining samples.

Control-plane moments (zone updates, fault injections, handovers) are
**annotations** on the same timeline: ``(t_ms, name, detail, scope)``
tuples rendered alongside the series so a mislocalization burst lines
up with the churn event that caused it.

Memory is bounded: each series keeps at most ``max_windows`` windows
(oldest dropped first) and at most ``max_annotations`` annotations
survive (earliest kept, after sorting).  Both bounds are enforced
identically on every backend, and :meth:`TimeSeries.merge_from` adds
window-wise — so per-trial instances merged in spec order reproduce
the serial instance exactly, extending the byte-identical artifact
contract to the time dimension.  Nothing here reads a clock or draws
randomness; callers pass simulated timestamps in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.telemetry.metrics import BucketCell, LabelKey, _label_key

#: One annotation: ``(t_ms, name, detail, scope)``.
Annotation = Tuple[float, str, str, str]


class TimeSeries:
    """Windowed counters + latency aggregates + timeline annotations."""

    def __init__(self, window_ms: float = 1000.0,
                 max_windows: int = 4096,
                 max_annotations: int = 512) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_ms = float(window_ms)
        self.max_windows = max_windows
        self.max_annotations = max_annotations
        self._counters: Dict[str, Dict[LabelKey, Dict[int, float]]] = {}
        self._latencies: Dict[str, Dict[LabelKey, Dict[int, BucketCell]]] = {}
        self._annotations: List[Annotation] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, t_ms: float, **labels: object) -> None:
        """Add one to the counter series window covering ``t_ms``."""
        series = self._counters.setdefault(name, {}).setdefault(
            _label_key(labels), {})
        index = int(t_ms // self.window_ms)
        series[index] = series.get(index, 0.0) + 1.0
        self._prune(series)

    def observe(self, name: str, t_ms: float, value: float,
                **labels: object) -> None:
        """Record one latency sample into the window covering ``t_ms``."""
        series = self._latencies.setdefault(name, {}).setdefault(
            _label_key(labels), {})
        index = int(t_ms // self.window_ms)
        cell = series.get(index)
        if cell is None:
            cell = series[index] = BucketCell()
        cell.observe(value)
        self._prune(series)

    def annotate(self, t_ms: float, name: str, detail: str = "",
                 scope: str = "") -> None:
        """Mark a control-plane moment on the timeline."""
        self._annotations.append((float(t_ms), name, detail, scope))

    # -- bulk ingestion (the engine's locally-aggregated windows) -----------

    def bulk_count(self, name: str, labels: Dict[str, object],
                   cells: Dict[int, float]) -> None:
        """Fold pre-aggregated counter windows in (window index -> value)."""
        self._add_counters(name, _label_key(labels), cells)

    def bulk_observe(self, name: str, labels: Dict[str, object],
                     cells: Dict[int, BucketCell]) -> None:
        """Fold pre-aggregated latency windows in (window index -> cell).

        The population engine builds one cell per window at the end of
        a district, so the whole run flushes in one call instead of
        paying a method dispatch per query.
        """
        self._add_cells(name, _label_key(labels), cells)

    # -- merging ------------------------------------------------------------

    def merge_from(self, other: "TimeSeries") -> None:
        """Add another instance window-wise (layouts must match)."""
        if other.window_ms != self.window_ms:
            raise ValueError(
                f"window mismatch: {self.window_ms} vs {other.window_ms}")
        for name in sorted(other._counters):
            for key in sorted(other._counters[name]):
                self._add_counters(name, key, other._counters[name][key])
        for name in sorted(other._latencies):
            for key in sorted(other._latencies[name]):
                self._add_cells(name, key, other._latencies[name][key])
        self._annotations.extend(other._annotations)
        self._cap_annotations()

    # -- reading back -------------------------------------------------------

    def annotations(self) -> List[Annotation]:
        """Every annotation, sorted by (time, scope, name, detail)."""
        self._cap_annotations()
        return list(self._annotations)

    @property
    def empty(self) -> bool:
        """Whether nothing has been recorded at all."""
        return not (self._counters or self._latencies or self._annotations)

    def to_dict(self) -> Dict[str, Any]:
        """The stable ``repro-timeseries-v1`` document."""
        series: List[Dict[str, Any]] = []
        for name in sorted(self._counters):
            for key in sorted(self._counters[name]):
                windows = self._counters[name][key]
                series.append({
                    "name": name, "kind": "counter", "labels": dict(key),
                    "windows": [{"index": index,
                                 "start_ms": index * self.window_ms,
                                 "value": windows[index]}
                                for index in sorted(windows)]})
        for name in sorted(self._latencies):
            for key in sorted(self._latencies[name]):
                windows = self._latencies[name][key]
                series.append({
                    "name": name, "kind": "latency", "labels": dict(key),
                    "windows": [{
                        "index": index,
                        "start_ms": index * self.window_ms,
                        "count": windows[index].count,
                        "sum": windows[index].total,
                        "buckets": [
                            [("+Inf" if bound == float("inf") else bound),
                             count]
                            for bound, count in zip(windows[index].bounds,
                                                    windows[index].counts)
                            if count],
                    } for index in sorted(windows)]})
        return {"format": "repro-timeseries-v1",
                "window_ms": self.window_ms,
                "series": series,
                "annotations": [
                    {"t_ms": t_ms, "name": name, "detail": detail,
                     "scope": scope}
                    for t_ms, name, detail, scope in self.annotations()]}

    # -- internals ----------------------------------------------------------

    def _add_counters(self, name: str, key: LabelKey,
                      cells: Dict[int, float]) -> None:
        series = self._counters.setdefault(name, {}).setdefault(key, {})
        for index, value in cells.items():
            series[index] = series.get(index, 0.0) + value
        self._prune(series)

    def _add_cells(self, name: str, key: LabelKey,
                   cells: Dict[int, BucketCell]) -> None:
        series = self._latencies.setdefault(name, {}).setdefault(key, {})
        for index, theirs in cells.items():
            cell = series.get(index)
            if cell is None:
                cell = series[index] = BucketCell()
            cell.merge(theirs)
        self._prune(series)

    def _prune(self, series: Dict[int, Any]) -> None:
        """Drop the oldest windows past ``max_windows``."""
        if len(series) > self.max_windows:
            for index in sorted(series)[:len(series) - self.max_windows]:
                del series[index]

    def _cap_annotations(self) -> None:
        self._annotations.sort()
        del self._annotations[self.max_annotations:]

    def __repr__(self) -> str:
        n_series = (sum(len(v) for v in self._counters.values())
                    + sum(len(v) for v in self._latencies.values()))
        return (f"TimeSeries(window={self.window_ms:g}ms, "
                f"{n_series} series, "
                f"{len(self._annotations)} annotations)")
