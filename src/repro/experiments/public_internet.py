"""The modelled public-Internet scenario behind Figures 2 and 3.

One device location, three access paths (the paper queried "from the
exact same geographic location" over campus Ethernet, home Wi-Fi, and a
cellular hotspot), each with its own L-DNS:

* wired-campus — the campus resolver, a couple of router hops away;
* wifi-home — the residential ISP resolver;
* cellular-mobile — the carrier resolver behind the EPC, reached through
  the LTE radio and the opaque operator path the paper blames for the
  "substantially higher delay and higher response time variability".

All three resolvers are cache → forward chains
(:class:`~repro.resolver.chain.ChainServer`, the MEC L-DNS's cache and
forward plugins) that send CDN-domain queries to one consolidated
authority plane (:class:`~repro.cdn.broker.BrokeredCdnAuthority`) that
applies each Table 1 site's per-connectivity pool mix.  Answer TTLs are
short (30 s) and the experiment spaces queries a minute apart, so every
query exercises the C-DNS step (steps 1, 3, 4 of Figure 1 — step 2 is
skipped exactly as the paper observed).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro import telemetry
from repro.cdn.broker import BrokeredCdnAuthority, CdnBroker
from repro.cdn.providers import CONNECTIVITIES, TABLE1_SITES, DomainDeployment
from repro.mobile.core import EvolvedPacketCore
from repro.mobile.profiles import CELLULAR_LTE, WIFI_HOME, WIRED_CAMPUS
from repro.netsim.engine import Simulator
from repro.netsim.latency import lognormal_from_median_p95
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.resolver.chain import CachePlugin, ChainServer, ForwardPlugin
from repro.resolver.stub import DigResult, StubResolver

#: Spacing between repeated tests; longer than the 30 s answer TTL so the
#: L-DNS re-asks the CDN plane each time, as the paper's spread implies.
SPACING_MS = 60_000.0

#: Per-domain extra C-DNS processing ("CDN internal caching mechanisms
#: around their server hierarchy, naming, indexing, ...", §2) — this is
#: what gives each Figure 2 subplot its own scale.
_PER_DOMAIN_CDNS_DELAY = {
    "Airbnb": lognormal_from_median_p95(9.0, 18.0),
    "Booking.com": lognormal_from_median_p95(2.0, 5.0),
    "TripAdvisor": lognormal_from_median_p95(4.0, 9.0),
    "Agoda": lognormal_from_median_p95(6.0, 12.0),
    "Expedia": lognormal_from_median_p95(3.0, 7.0),
}


class PublicInternetScenario:
    """Three access networks sharing one brokered CDN authority plane."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim, RandomStreams(seed))
        telemetry.attach_default(self.network)
        streams = self.network.streams

        # The consolidated CDN routing plane.
        plane = self.network.add_host("cdn-plane", "203.0.113.53")
        brokers = [CdnBroker(deployment, streams.stream(f"broker:{deployment.site}"))
                   for deployment in TABLE1_SITES]
        per_domain_delay = {
            deployment.domain: _PER_DOMAIN_CDNS_DELAY[deployment.site]
            for deployment in TABLE1_SITES}
        self.authority = BrokeredCdnAuthority(
            self.network, plane, brokers,
            resolver_classes={
                "192.0.10.": "wired-campus",
                "198.51.77.": "wifi-home",
                "198.51.100.": "cellular-mobile",
            },
            per_domain_delay=per_domain_delay)

        self._clients: Dict[str, str] = {}
        self._resolvers: Dict[str, ChainServer] = {}
        self._build_wired()
        self._build_wifi()
        self._build_cellular()

    # -- access paths -----------------------------------------------------------

    def _add_resolver(self, connectivity: str, client: str,
                      host: str) -> None:
        """The L-DNS on ``host``: cache, then forward to the CDN plane."""
        self._clients[connectivity] = client
        self._resolvers[connectivity] = ChainServer(
            self.network, self.network.host(host),
            [CachePlugin(), ForwardPlugin(self.authority.endpoint)])

    def _build_wired(self) -> None:
        net = self.network
        net.add_host("client-wired", "10.10.0.2")
        net.add_host("campus-sw", "10.10.0.1")
        net.add_host("campus-ldns", "192.0.10.53")
        net.add_link("client-wired", "campus-sw", WIRED_CAMPUS.radio)
        net.add_link("campus-sw", "campus-ldns", WIRED_CAMPUS.access_backhaul)
        net.add_link("campus-ldns", "cdn-plane",
                     lognormal_from_median_p95(5.0, 9.0, shift=2.0))
        self._add_resolver("wired-campus", "client-wired", "campus-ldns")

    def _build_wifi(self) -> None:
        net = self.network
        net.add_host("client-wifi", "192.168.1.2")
        net.add_host("home-ap", "192.168.1.1")
        net.add_host("isp-ldns", "198.51.77.53")
        net.add_link("client-wifi", "home-ap", WIFI_HOME.radio)
        net.add_link("home-ap", "isp-ldns", WIFI_HOME.access_backhaul)
        net.add_link("isp-ldns", "cdn-plane",
                     lognormal_from_median_p95(6.0, 11.0, shift=2.5))
        self._add_resolver("wifi-home", "client-wifi", "isp-ldns")

    def _build_cellular(self) -> None:
        net = self.network
        epc = EvolvedPacketCore(
            net, "carrier", CELLULAR_LTE,
            sgw_ip="10.140.0.2", pgw_ip="10.140.0.1",
            public_ips=["198.51.100.9"])
        epc.add_base_station("hotspot-enb", "10.140.1.1")
        # The hotspot phone and the laptop behind it collapse into one UE
        # host; the paper tethered through a phone hotspot.
        net.add_host("client-cell", "10.145.0.2")
        net.add_link("client-cell", "hotspot-enb", CELLULAR_LTE.radio)
        net.add_host("carrier-ldns", "198.51.100.53")
        # The opaque operator path to the cellular L-DNS (§2 observation 1).
        net.add_link(epc.pgw.name, "carrier-ldns",
                     lognormal_from_median_p95(15.0, 36.0, shift=6.0))
        net.add_link("carrier-ldns", "cdn-plane",
                     lognormal_from_median_p95(6.0, 11.0, shift=2.5))
        self._add_resolver("cellular-mobile", "client-cell", "carrier-ldns")
        self.epc = epc

    # -- query drivers ----------------------------------------------------------------

    def resolver_endpoint(self, connectivity: str) -> Endpoint:
        """The L-DNS endpoint serving one connectivity class."""
        return self._resolvers[connectivity].endpoint

    def run_series(self, connectivity: str, deployment: DomainDeployment,
                   count: int) -> List[DigResult]:
        """``count`` dig runs for one domain over one access network."""
        if connectivity not in CONNECTIVITIES:
            raise ValueError(f"unknown connectivity {connectivity!r}")
        client = self.network.host(self._clients[connectivity])
        stub = StubResolver(self.network, client,
                            self.resolver_endpoint(connectivity))
        results: List[DigResult] = []

        def driver() -> Generator:
            for _ in range(count):
                result = yield from stub.query(deployment.domain)
                results.append(result)
                yield SPACING_MS

        self.sim.run_until_resolved(self.sim.spawn(driver()))
        return results
