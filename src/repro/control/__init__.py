"""The dynamic control plane: live cluster and zone state (extension).

Figure 5 measures a frozen system — the cache fleet, the zone data, and
the UE's cell never change mid-run.  Real MEC-CDNs churn constantly:
pods scale and roll, the delivery zone is re-provisioned, and UEs hand
over between cells.  This package makes that state *live* and measures
how the resolution chain degrades (or doesn't) while it moves:

* :mod:`repro.control.registry` — :class:`ZoneRegistry`, the versioned
  source of truth for the delivery zone.  Every endpoint-set update
  bumps the SOA serial;
* :mod:`repro.control.propagation` — :class:`PropagationCoordinator`,
  which pushes each version into the primary authoritative server
  (which journals the diff for IXFR, RFC 1995),
  NOTIFYs (RFC 1996) the MEC-local secondary, retries the transfer
  under faults, and applies each installed version to the C-DNS's
  routing view at simulated time;
* :mod:`repro.control.churn` — :class:`ChurnDriver`, scheduled
  orchestrator events (scale up/down, rolling restarts) that feed the
  registry exactly as a cloud controller would;
* :mod:`repro.control.monitor` — :class:`StalenessMonitor`, which turns
  updates and answers into the experiment's three quantities: staleness
  windows, mislocalization-during-churn, and the serve-stale overlap;
* :mod:`repro.control.plane` — :class:`ControlPlane`, the assembly over
  a built :class:`~repro.core.deployments.Testbed`.

The load-bearing design rule: the traffic router's view updates **only
when zone propagation completes**, never by peeking at orchestrator
ground truth — otherwise the very staleness this package exists to
measure would be invisible.
"""
