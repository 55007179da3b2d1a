"""Latency-budget profiling: from raw spans to actionable verdicts.

A read-only consumer of :mod:`repro.telemetry` (the leaf of the layer
DAG — nothing in the simulation stack may import it), answering three
questions the raw spans cannot:

* **Where did the budget go?** — :mod:`repro.profile.criticalpath`
  attributes every simulated instant of a trace to a named stage
  (radio, backhaul, L-DNS cache, upstream exchanges, C-DNS routing),
  with stage sums float-identical to the trace duration;
  :mod:`repro.profile.budget` rolls that up per deployment.
* **What dominates?** — :mod:`repro.profile.profiler` builds
  deterministic inclusive/exclusive simulated-time profiles with
  text-table and collapsed-stack (flamegraph) exporters.
* **Is it good enough?** — :mod:`repro.profile.slo` states the latency
  bounds as :class:`~repro.runtime.Claim` rows over the artifact each
  reads (``mec-ldns-mec-cdns p99 resolve_ms < 20`` over the budget
  document), and :mod:`repro.profile.harness` (``repro profile``)
  produces the budget document from one profiled run.

See ``docs/OBSERVABILITY.md`` ("From spans to answers") for the tour.
"""

from repro.profile.budget import (BudgetReport, BudgetRow, StageBudget,
                                  budget_report)
from repro.profile.criticalpath import (STAGE_BACKHAUL, STAGE_CDNS,
                                        STAGE_CLIENT, STAGE_LDNS_CACHE,
                                        STAGE_OTHER, STAGE_RADIO, STAGES,
                                        STAGE_UPSTREAM, CriticalPath,
                                        PathStep, Segment,
                                        analyze_trace, trace_segments)
from repro.profile.profiler import (ProfileEntry, collapsed_stacks,
                                    render_collapsed, render_profile,
                                    simulated_profile)
from repro.profile.slo import (budget_claims, burn_rates, series_windows,
                               telemetry_claims)

__all__ = [
    "STAGES",
    "STAGE_BACKHAUL",
    "STAGE_CDNS",
    "STAGE_CLIENT",
    "STAGE_LDNS_CACHE",
    "STAGE_OTHER",
    "STAGE_RADIO",
    "STAGE_UPSTREAM",
    "BudgetReport",
    "BudgetRow",
    "CriticalPath",
    "PathStep",
    "ProfileEntry",
    "Segment",
    "StageBudget",
    "analyze_trace",
    "budget_claims",
    "budget_report",
    "burn_rates",
    "collapsed_stacks",
    "render_collapsed",
    "render_profile",
    "series_windows",
    "simulated_profile",
    "telemetry_claims",
    "trace_segments",
]
