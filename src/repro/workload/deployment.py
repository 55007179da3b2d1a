"""Per-deployment latency calibration for the mesoscale engine.

The population engine cannot afford the full packet simulator at 10^6
queries (~0.4 ms of wall clock each), but it must not invent latency
numbers either.  The bridge is *calibration*: build the real Figure 5
testbed for the deployment, measure a modest batch of full-fidelity
lookups through the actual stub → L-DNS → C-DNS chain, and bootstrap
the engine's per-query DNS cost from those samples (wireless and
resolver legs separately, the paper's dig + tcpdump split).  The
calibration seed depends only on the base seed and deployment key —
never on the shard — so every shard of a sweep, and the serial run,
derives the identical model.

Routing semantics come with the model: the three MEC deployments
resolve at the UE's current site (client-location-aware), while the
warmed LAN/Google/Cloudflare resolvers answer from a cached A record
pointing at one anchor cache — client-blind, the paper's
mislocalization mechanism, which at city scale strands ``1 - 1/sites``
of all traffic off-site.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.core.deployments import MEC_DEPLOYMENTS, build_testbed
from repro.measure.runner import measure_deployment_queries
from repro.netsim.latency import (Constant, Empirical, LatencyModel,
                                  lognormal_from_median_p95)
from repro.runtime.spec import derive_seed

#: Full-fidelity lookups measured per deployment to seed the bootstrap.
CALIBRATION_QUERIES = 48

#: One-way delay for an intra-site fetch leg (P-GW to a MEC node plus
#: the cluster fabric, per the testbed's mec-lan/mec-fabric links).
#: Declared as the Constant it is: the engine reads ``.value`` instead
#: of calling ``sample`` once per locally served request.
INTRA_SITE_LEG: Constant = Constant(0.75)

#: One-way delay to a cache at a *different* MEC site (metro backhaul,
#: WAN-distance like the testbed's WAN C-DNS placement).
INTER_SITE_LEG: LatencyModel = lognormal_from_median_p95(23.0, 33.0,
                                                         shift=12.0)

#: One-way delay from a cache to the origin on a miss fill.
ORIGIN_LEG: LatencyModel = lognormal_from_median_p95(23.0, 33.0, shift=12.0)

#: Origin service time added on a miss (ms).
ORIGIN_SERVICE_MS = 5.0


class DeploymentModel(NamedTuple):
    """The calibrated mesoscale stand-in for one Figure 5 deployment."""

    key: str
    label: str
    #: Bootstrap models for the two legs of one DNS lookup.
    wireless: Empirical
    resolver: Empirical
    #: Whether resolution is client-location-aware (MEC L-DNS/C-DNS
    #: chain) or a client-blind warmed resolver pinned to the anchor.
    localized: bool


def is_localized(key: str) -> bool:
    """Whether ``key`` resolves at the client's MEC site."""
    return key in MEC_DEPLOYMENTS


def calibrate(key: str, seed: int) -> DeploymentModel:
    """Measure ``key``'s testbed and build its mesoscale model.

    The testbed seed is ``derive_seed(seed, "calibrate", key)``: shared
    by every shard (and the serial path) of the same run, distinct
    across base seeds and deployments.
    """
    testbed = build_testbed(key, seed=derive_seed(seed, "calibrate", key))
    measurements = measure_deployment_queries(testbed, CALIBRATION_QUERIES)
    wireless: List[float] = [m.wireless_ms for m in measurements]
    resolver: List[float] = [m.resolver_ms for m in measurements]
    return DeploymentModel(
        key=key,
        label=testbed.label,
        wireless=Empirical(wireless),
        resolver=Empirical(resolver),
        localized=testbed.localized)
