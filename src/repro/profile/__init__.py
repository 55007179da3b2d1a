"""Latency-budget profiling: from raw spans to actionable verdicts.

A read-only consumer of :mod:`repro.telemetry` (the leaf of the layer
DAG — nothing in the simulation stack may import it), answering two
questions the raw spans cannot:

* **Where did the budget go?** — :mod:`repro.profile.criticalpath`
  attributes every simulated instant of a trace to a named stage
  (radio, backhaul, L-DNS cache, upstream exchanges, C-DNS routing),
  with stage sums float-identical to the trace duration;
  :mod:`repro.profile.budget` rolls that up per deployment.
* **Is it good enough?** — :mod:`repro.profile.slo` states the latency
  bounds as :class:`~repro.runtime.Claim` rows over the artifact each
  reads (``mec-ldns-mec-cdns p99 resolve_ms < 20`` over the budget
  document), and :mod:`repro.profile.harness` (``repro profile``)
  writes the budget document from one observed run.

See ``docs/OBSERVABILITY.md`` ("From spans to answers") for the tour.
"""
