"""ControlPlane: the dynamic control plane assembled over a testbed.

The assembly adds two hosts to a built Figure 5 testbed and wires the
whole provisioning chain through them:

* ``cdn-origin`` — the CDN's primary authoritative server at WAN
  distance (where a real CDN's provisioning API lives).  The registry's
  versions are installed here first and served to secondaries via
  IXFR/AXFR out of a **bounded** journal;
* ``<site>-zonesync`` — the MEC-local secondary on the cluster LAN.
  It is pre-seeded with version 1 (provisioned at deploy time), woken
  by NOTIFY for the fast path, and keeps a periodic SOA refresh as the
  recovery path.

When a version lands at the secondary, it is applied to the site's
traffic router with :meth:`~repro.cdn.router.TrafficRouter.set_zone_caches`
— the router routes on the **propagated** view, never on orchestrator
ground truth, so the window between "cluster changed" and "DNS caught
up" is real and measurable.  The CoreDNS cache plugin's
``churn_window`` hook is pointed at that same window so RFC 8767 stale
answers served during it are counted separately.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cdn.cache_server import CacheServer
from repro.core.deployments import Testbed
from repro.dnswire.zone import Zone
from repro.core.meccdn import MecCdnSite
from repro.netsim.latency import Constant
from repro.netsim.packet import Endpoint
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.retry import RetryPolicy
from repro.resolver.xfr import DEFAULT_JOURNAL_DEPTH, SecondaryZone

from repro.control.churn import ChurnDriver, ChurnEvent
from repro.control.monitor import StalenessMonitor
from repro.control.propagation import PropagationCoordinator
from repro.control.registry import ZoneRegistry

#: Where the primary lives and how far away it is (one-way ms, WAN).
PRIMARY_IP = "203.0.113.80"
PRIMARY_HOST = "cdn-origin"
PRIMARY_WAN_ONE_WAY_MS = 23.0

#: The MEC-local secondary host (cluster LAN, next to the k8s nodes).
SECONDARY_IP = "10.40.2.40"
SECONDARY_LAN_ONE_WAY_MS = 0.25

#: The secondary's periodic SOA refresh (recovery path) and its
#: per-query patience.  Short enough that a run-length fault window is
#: survivable inside one experiment cell.
REFRESH_MS = 5000.0
SYNC_TIMEOUT_MS = 600.0


class ControlPlane:
    """Registry + propagation + monitoring over one built testbed."""

    def __init__(self, testbed: Testbed,
                 journal_depth: int = DEFAULT_JOURNAL_DEPTH) -> None:
        site = testbed.mec_site
        if site is None:
            raise ValueError(
                "the control plane needs a testbed with a MEC site")
        self.testbed = testbed
        self.site: MecCdnSite = site
        network = testbed.network
        self.network = network

        initial = tuple(sorted(cache.endpoint.ip for cache in site.caches))
        self.registry = ZoneRegistry(network, site.cdn_domain, initial,
                                     journal_depth=journal_depth)

        # -- primary at WAN distance ----------------------------------------
        primary_host = testbed.epc.add_sgi_host(
            PRIMARY_HOST, PRIMARY_IP, Constant(PRIMARY_WAN_ONE_WAY_MS))
        self.primary = AuthoritativeServer(
            network, primary_host, [self.registry.zone],
            journal_depth=journal_depth)

        # -- MEC-local secondary, pre-seeded with version 1 -----------------
        secondary_name = f"{site.name}-zonesync"
        secondary_host = testbed.epc.add_sgi_host(
            secondary_name, SECONDARY_IP, Constant(SECONDARY_LAN_ONE_WAY_MS))
        self.secondary_server = AuthoritativeServer(
            network, secondary_host, [self.registry.zone],
            journal_depth=journal_depth)
        self.secondary = SecondaryZone(
            network, self.secondary_server, self.registry.origin,
            Endpoint(PRIMARY_IP, 53), refresh_ms=REFRESH_MS)
        self.secondary._stub.policy = RetryPolicy(
            retries=1, timeout_ms=SYNC_TIMEOUT_MS, backoff=1.0)
        self.secondary.start()

        # -- propagation + monitoring ---------------------------------------
        self.coordinator = PropagationCoordinator(
            network, self.registry, self.primary, self.secondary,
            on_applied=self._apply_to_router)
        self.driver: Optional[ChurnDriver] = None
        self.monitor = StalenessMonitor(
            network, live=self._live_addresses,
            in_window=self.coordinator.in_flight,
            scope=testbed.key)
        self.registry.subscribe(
            lambda update, zone: self.monitor.note_update(update))
        if site.ldns.cache_plugin is not None:
            site.ldns.cache_plugin.churn_window = self.coordinator.in_flight
        self.router_applies = 0

    # -- churn ---------------------------------------------------------------

    def add_churn(self, schedule: Sequence[ChurnEvent]) -> ChurnDriver:
        """Schedule churn events against the site's cache fleet."""
        if self.driver is not None:
            raise ValueError("churn schedule already installed")
        self.driver = ChurnDriver(self.network, self.site, self.registry,
                                  schedule)
        return self.driver

    def _live_addresses(self) -> Sequence[str]:
        if self.driver is not None:
            return self.driver.live
        return self.registry.addresses

    # -- the apply step -------------------------------------------------------

    def _apply_to_router(self, zone: Zone) -> None:
        """Rebuild the router's edge zone from the propagated content."""
        addresses = ZoneRegistry.addresses_in(zone, self.registry.owner)
        caches: List[CacheServer] = []
        for address in addresses:
            for cache in self.site.caches:
                if cache.endpoint.ip == address:
                    caches.append(cache)
                    break
        self.site.cdns.set_zone_caches(f"{self.site.name}-edge", caches)
        self.router_applies += 1

    # -- observability -------------------------------------------------------

    @property
    def secondary_host_name(self) -> str:
        """For fault plans that cut the MEC off (partition scenarios)."""
        return self.secondary.server.host.name

    def log(self) -> List[str]:
        """Propagation lifecycle lines plus churn timeline (digest food)."""
        lines = list(self.coordinator.log())
        if self.driver is not None:
            lines.extend(self.driver.timeline)
        return lines

    def __repr__(self) -> str:
        return (f"ControlPlane({self.registry!r}, "
                f"applies={self.router_applies})")
