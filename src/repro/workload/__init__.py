"""Population-scale workload synthesis (the ROADMAP's "millions of
users" layer).

Generates city-scale traffic against the Figure 5 deployments without
per-query record lists or per-item weight tables:

* :mod:`repro.workload.population` — UEs as pure functions of
  ``(seed, index)`` via ``derive_seed``; O(1) memory per district.
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
* :mod:`repro.workload.engine` — districts (the sharding unit), the
  shared-geometry consistent-hash router, and streaming aggregation
  into mergeable histograms and exact counters.
* :mod:`repro.workload.observer` — what a district reports beside its
  result when telemetry is on: windows, sampled session trees and tail
  exemplars, from the kernel's per-query records.
"""

from repro.cdn.allocation import ALLOCATION_POLICIES
from repro.workload.arrivals import (DEFAULT_DIURNAL, DiurnalProfile,
                                     NhppArrivals)
from repro.workload.caches import RankLru
from repro.workload.deployment import (CALIBRATION_QUERIES, DeploymentModel,
                                       calibrate, is_localized)
from repro.workload.engine import (DistrictConfig, DistrictStats,
                                   district_seed, merge_stats, run_district)
from repro.workload.mobility import (HANDOVER_INTERRUPTION_MS, MobilityModel,
                                     SessionPlacement)
from repro.workload.population import Population, UserProfile
from repro.workload.sessions import SessionModel

__all__ = [
    "ALLOCATION_POLICIES",
    "CALIBRATION_QUERIES",
    "DEFAULT_DIURNAL",
    "HANDOVER_INTERRUPTION_MS",
    "DeploymentModel",
    "DistrictConfig",
    "DistrictStats",
    "DiurnalProfile",
    "MobilityModel",
    "NhppArrivals",
    "Population",
    "RankLru",
    "SessionModel",
    "SessionPlacement",
    "UserProfile",
    "calibrate",
    "district_seed",
    "is_localized",
    "merge_stats",
    "run_district",
]
