"""Population-scale workload synthesis (the ROADMAP's "millions of
users" layer).

Generates city-scale traffic against the Figure 5 deployments without
per-query record lists or per-item weight tables.  The model modules
hold each model's parameters and validation; the engine draws from them
in-line, per UE, per session and per query:

* :mod:`repro.workload.arrivals` — diurnal non-homogeneous Poisson
  session arrivals by Lewis-Shedler thinning.
* :mod:`repro.workload.sessions` — geometric requests-per-session and
  exponential think times.
* :mod:`repro.workload.mobility` — session-grained inter-site movement
  and mid-session handover interruptions (the mesoscale view of
  ``repro.mobile.handoff``).
* :mod:`repro.workload.caches` — exact LRU hit/miss accounting over
  content ranks.
* :mod:`repro.workload.deployment` — latency models calibrated from
  full-fidelity testbed measurements, shard-independently.
* :mod:`repro.workload.engine` — districts (the sharding unit), UEs as
  pure functions of ``(seed, index)`` (O(1) memory per district), the
  shared-geometry consistent-hash router, and streaming aggregation
  into mergeable histograms and exact counters.
* :mod:`repro.workload.observer` — what a district reports beside its
  result when telemetry is on: windows, sampled session trees and tail
  exemplars, from the kernel's per-query records.
"""
