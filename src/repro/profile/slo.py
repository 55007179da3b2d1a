"""The latency bounds ``repro slo`` checks, as :class:`~repro.runtime.Claim`
rows built from the artifact each one reads.

* :func:`budget_claims` reads the ``repro-budget-v1`` document ``repro
  profile figure5`` writes.  It holds raw samples, so a mean or a
  percentile is exact.
* :func:`telemetry_claims` reads the ``repro-timeseries-v1`` document a
  sampled population run embeds in its ``repro-telemetry-v1`` artifact:
  bucketed windows of latency, and counters the burn-rate rows divide.

Missing data fails.  A deployment without budget samples fails its
``samples > 0`` row, and a value with nothing to read is NaN, which no
comparison accepts.  An empty window inside a series' covered range is
counted, and the count must be 0.  ``scripts/claim_sweep.py`` runs both
row sets over seeds 1-32, so every bound here has a measured margin.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.runtime import Claim
from repro.telemetry.metrics import BucketCell, percentile

#: ``(scope, aggregate, metric, op, bound)`` over the figure5 budget, in
#: ms; ``*`` pools every deployment.  ``metric`` is ``resolve_ms`` or
#: ``stage.<name>_ms`` (a critical-path stage).
_BUDGET_BOUNDS = (
    # P1 (PAPER.md): collocated MEC L-DNS + MEC C-DNS resolves far inside
    # the ~20 ms an MEC application can spend end to end.
    ("mec-ldns-mec-cdns", "p99", "resolve_ms", "<", 20.0),
    ("mec-ldns-mec-cdns", "mean", "resolve_ms", "<", 15.0),
    ("mec-ldns-mec-cdns", "mean", "stage.upstream-recursion_ms", "<", 2.0),
    # LAN C-DNS is near the edge, but its p95 stays under 25 ms.
    ("mec-ldns-lan-cdns", "p95", "resolve_ms", "<", 25.0),
    # The paper's point: WAN C-DNS and the legacy paths miss the budget.
    ("mec-ldns-wan-cdns", "mean", "resolve_ms", ">", 20.0),
    ("lan-ldns", "p50", "resolve_ms", ">", 100.0),
    ("google-dns", "p50", "resolve_ms", ">", 100.0),
    ("*", "p50", "resolve_ms", "<", 150.0),
)

#: ``(deployment, aggregate, bound)``: the slowest window of the
#: population run's ``repro_workload_total_ms`` stays under ``bound`` ms.
_WINDOW_BOUNDS = (
    ("mec-ldns-mec-cdns", "p95", 150.0),
    ("mec-ldns-lan-cdns", "p95", 150.0),
    ("mec-ldns-mec-cdns", "mean", 100.0),
    # Anchored resolvers recurse over the WAN; their tail is bounded anyway.
    ("lan-ldns", "p99", 600.0),
    ("google-dns", "p99", 600.0),
)

#: ``(deployment, op, budget, factor, fast, slow)``: the mislocalized
#: share of queries as an error budget.  MEC L-DNS + MEC C-DNS keeps the
#: alert quiet (``<``); a remote public resolver fires it (``>=``).
_BURN_BOUNDS = (
    ("mec-ldns-mec-cdns", "<", 0.05, 2.0, 2, 4),
    ("google-dns", ">=", 0.1, 2.0, 2, 4),
)

_PERCENTS = {"p50": 50.0, "p95": 95.0, "p99": 99.0}


def _aggregate(samples: Sequence[float], agg: str) -> float:
    if not samples:
        return math.nan
    if agg == "mean":
        return reduce(add, samples, 0) / len(samples)
    return percentile(samples, _PERCENTS[agg])


def budget_claims(document: Mapping[str, Any]) -> List[Claim]:
    """The figure5 budget bounds, then one presence row per deployment."""
    rows = document.get("rows", [])

    def samples(scope: str, metric: str) -> List[float]:
        found: List[float] = []
        for row in rows:
            if scope not in ("*", row.get("deployment")):
                continue
            entry = (row.get("resolve_ms", {}) if metric == "resolve_ms"
                     else row.get("stages", {}).get(
                         metric[len("stage."):-len("_ms")], {}))
            found.extend(entry.get("samples", []))
        return found

    claims = [Claim(f"{scope} {agg} {metric}",
                    _aggregate(samples(scope, metric), agg), op, bound)
              for scope, agg, metric, op, bound in _BUDGET_BOUNDS]
    named = dict.fromkeys(scope for scope, *_ in _BUDGET_BOUNDS
                          if scope != "*")
    return claims + [Claim(f"{scope} budget samples",
                           len(samples(scope, "resolve_ms")), ">", 0)
                     for scope in named]


def series_windows(timeseries: Mapping[str, Any], name: str,
                   scope: str) -> Dict[int, Any]:
    """Window index -> every ``name`` series of deployment ``scope``
    (``*``: any) merged: a float for a counter, a
    :class:`~repro.telemetry.metrics.BucketCell` for latency."""
    merged: Dict[int, Any] = {}
    for series in timeseries.get("series", []):
        labels = series.get("labels", {})
        if (series.get("name") != name
                or scope not in ("*", str(labels.get("deployment", "")))):
            continue
        for window in series.get("windows", []):
            index = int(window["index"])
            if series.get("kind") == "counter":
                merged[index] = (merged.get(index, 0.0)
                                 + float(window.get("value", 0.0)))
                continue
            merged.setdefault(index, BucketCell()).merge(
                BucketCell.from_sparse(
                    ((float(bound), int(count))
                     for bound, count in window.get("buckets", [])),
                    int(window.get("count", 0)),
                    float(window.get("sum", 0.0))))
    return merged


def burn_rates(timeseries: Mapping[str, Any], scope: str, bad: str,
               total: str, budget: float, fast: int,
               slow: int) -> Dict[int, float]:
    """Window index -> the smaller of the fast and slow burn rates.

    A burn rate is the error ratio ``bad / total`` over the trailing
    ``fast`` (or ``slow``) windows, divided by ``budget``; a trailing
    span with no total burns nothing.  The multi-window alert fires in a
    window exactly when both burns reach its factor, so when this value
    does.  Empty when no ``total`` series matches.
    """
    totals = series_windows(timeseries, total, scope)
    bads = series_windows(timeseries, bad, scope)
    if not totals:
        return {}
    covered = [*totals, *bads]

    def burn(index: int, span: int) -> float:
        trailing = range(index - span + 1, index + 1)
        seen = reduce(add, [totals[i] for i in trailing if i in totals], 0)
        if not seen:
            return 0.0
        return (reduce(add, [bads[i] for i in trailing if i in bads], 0)
                / seen) / budget

    return {index: min(burn(index, fast), burn(index, slow))
            for index in range(min(covered), max(covered) + 1)}


def telemetry_claims(document: Mapping[str, Any]) -> List[Claim]:
    """The population window bounds, one empty-window row per deployment
    they name, and the burn-rate alerts, from the embedded time-series."""
    timeseries = document.get("timeseries") or {}
    cells = {scope: series_windows(timeseries, "repro_workload_total_ms",
                                   scope)
             for scope, _, _ in _WINDOW_BOUNDS}
    claims: List[Claim] = []
    for scope, agg, bound in _WINDOW_BOUNDS:
        values = [cell.total / cell.count if agg == "mean"
                  else cell.quantile(_PERCENTS[agg])
                  for cell in cells[scope].values() if cell.count]
        claims.append(Claim(f"{scope} slowest window {agg} total_ms",
                            max(values, default=math.nan), "<", bound))
    for scope, windows in cells.items():
        empty = (sum(1 for index in range(min(windows), max(windows) + 1)
                     if index not in windows or not windows[index].count)
                 if windows else math.nan)
        claims.append(Claim(f"{scope} empty total_ms windows in range",
                            empty, "==", 0))
    for scope, op, budget, factor, fast, slow in _BURN_BOUNDS:
        burns = burn_rates(timeseries, scope, "repro_workload_mislocalized",
                           "repro_workload_queries", budget, fast, slow)
        claims.append(Claim(
            f"{scope} peak mislocalization burn ({budget:g} budget)",
            max(burns.values(), default=math.nan), op, factor))
    return claims


#: ``repro slo``'s row function for each artifact ``format`` it reads.
CLAIM_ROWS: Dict[str, Callable[[Mapping[str, Any]], List[Claim]]] = {
    "repro-budget-v1": budget_claims,
    "repro-telemetry-v1": telemetry_claims,
}
