"""Per-deployment latency-budget reports from measured lookup traces.

This is the analyzer that turns a figure5-style run's spans into the
question the paper actually asks: *for each deployment option, where
does the sub-20 ms budget go?*  Every non-warmup ``measure/lookup``
root span (tagged with its deployment key by the measure runner) is
attributed stage by stage via :mod:`repro.profile.criticalpath`, and
the per-deployment distributions are summarized the usual way (mean,
p50/p95/p99, max).

The serialized document (``repro-budget-v1``) keeps the raw samples,
not just the aggregates, so downstream SLO evaluation
(:mod:`repro.profile.slo`) can compute any quantile without re-running
the simulation.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add
from typing import Any, Dict, Iterable, List, NamedTuple

from repro.profile.criticalpath import STAGES, analyze_trace
from repro.telemetry import Span
from repro.telemetry.metrics import percentile


class StageBudget(NamedTuple):
    """One stage's share of one deployment's lookups."""

    mean_ms: float
    samples: List[float]


class BudgetRow(NamedTuple):
    """One deployment's resolution-latency budget."""

    deployment: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    samples: List[float]
    #: Keyed by stage name, canonical :data:`STAGES` order, only
    #: stages that received any time.
    stages: Dict[str, StageBudget]


class BudgetReport(NamedTuple):
    """Budget rows for every deployment seen in a run's spans."""

    rows: List[BudgetRow]

    def to_dict(self) -> Dict[str, Any]:
        """The machine-readable ``repro-budget-v1`` document."""
        return {
            "format": "repro-budget-v1",
            "rows": [{
                "deployment": row.deployment,
                "count": row.count,
                "resolve_ms": {
                    "mean": row.mean_ms,
                    "p50": row.p50_ms,
                    "p95": row.p95_ms,
                    "p99": row.p99_ms,
                    "max": row.max_ms,
                    "samples": list(row.samples),
                },
                "stages": {stage: {"mean_ms": budget.mean_ms,
                                   "samples": list(budget.samples)}
                           for stage, budget in row.stages.items()},
            } for row in self.rows],
        }

    def render(self) -> str:
        """The budget as a text report: latency table + stage means."""
        stage_names = [stage for stage in STAGES
                       if any(stage in row.stages for row in self.rows)]
        lines = [f"{'deployment':22s} {'n':>4s} {'mean':>8s} {'p50':>8s} "
                 f"{'p95':>8s} {'p99':>8s} {'max':>8s}"]
        for row in self.rows:
            lines.append(f"{row.deployment:22s} {row.count:4d} "
                         f"{row.mean_ms:8.2f} {row.p50_ms:8.2f} "
                         f"{row.p95_ms:8.2f} {row.p99_ms:8.2f} "
                         f"{row.max_ms:8.2f}")
        lines.append("")
        header = f"{'stage means (ms)':22s}" + "".join(
            f" {stage:>18s}" for stage in stage_names)
        lines.append(header)
        for row in self.rows:
            cells = "".join(
                f" {row.stages[stage].mean_ms:18.3f}"
                if stage in row.stages else f" {'-':>18s}"
                for stage in stage_names)
            lines.append(f"{row.deployment:22s}{cells}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Serialize :meth:`to_dict` as stable JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def budget_report(spans: Iterable[Span]) -> BudgetReport:
    """Build the per-deployment budget from a run's finished spans.

    Rows come out sorted by deployment key so the report (and its JSON
    document) is deterministic regardless of trial completion order.
    """
    materialized = [span for span in spans if span.end_ms is not None]
    by_trace: Dict[int, List[Span]] = {}
    for span in materialized:
        by_trace.setdefault(span.trace_id, []).append(span)

    grouped: Dict[str, List[int]] = {}
    for span in materialized:
        if (span.name != "lookup" or span.category != "measure"
                or span.attrs.get("warmup")):
            continue
        deployment = str(span.attrs.get("deployment", "unknown"))
        grouped.setdefault(deployment, []).append(span.trace_id)

    rows: List[BudgetRow] = []
    for deployment in sorted(grouped):
        resolve_samples: List[float] = []
        stage_samples: Dict[str, List[float]] = {}
        for trace_id in grouped[deployment]:
            path = analyze_trace(by_trace.get(trace_id, []), trace_id)
            resolve_samples.append(path.total_ms)
            # Record every stage for every lookup (zeros included), so
            # stage sample series align with the resolve series and
            # quantiles over them are meaningful.
            for stage in STAGES:
                stage_samples.setdefault(stage, []).append(
                    path.stage_ms(stage))
        stages = {stage: StageBudget(
                      mean_ms=reduce(add, stage_samples[stage], 0)
                      / len(stage_samples[stage]),
                      samples=stage_samples[stage])
                  for stage in STAGES
                  if stage in stage_samples
                  and any(stage_samples[stage])}
        rows.append(BudgetRow(
            deployment=deployment,
            count=len(resolve_samples),
            mean_ms=(reduce(add, resolve_samples, 0)
                     / len(resolve_samples)),
            p50_ms=percentile(resolve_samples, 50),
            p95_ms=percentile(resolve_samples, 95),
            p99_ms=percentile(resolve_samples, 99),
            max_ms=max(resolve_samples),
            samples=resolve_samples,
            stages=stages))
    return BudgetReport(rows=rows)
