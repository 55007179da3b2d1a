"""The LTE testbed and the six DNS deployments of Figure 5.

Topology (one instance per deployment run, all latencies one-way):

    UE ==radio== eNB --s1-- S-GW --s5-- P-GW ---+--- mec nodes (cluster)
                                                +--- lan-cdns   (~2.8 ms)
                                                +--- core L-DNS (~52 ms)
                                                +--- cloud      (~23 ms)
                                                +--- google / cloudflare

Calibration: the paper's Figure 5 bar means are (read off the plot and
the text) roughly 14.4 / 19.4 / 60.9 / 114.6 / 112.5 / 128.4 ms, with the
wireless LTE leg contributing ~10 ms of round trip to every bar and
dominating the MEC bar.  Link constants below are chosen so the simulated
means land near those targets; the claims the reproduction must preserve
are *relative*: the ordering, the ~5 ms MEC-vs-LAN gap, the ~9x
MEC-vs-cloud-DNS gap, and the 20 ms line crossing between the second and
third bars.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cdn.content import ContentCatalog
from repro.cdn.router import CoverageZone, TrafficRouter
from repro.core.meccdn import MecCdnSite
from repro.dnswire.message import ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import A
from repro.dnswire.types import RecordType
from repro.mobile.core import EvolvedPacketCore
from repro.mobile.profiles import AccessProfile
from repro.mobile.ue import UserEquipment
from repro.netsim.latency import (Constant, LatencyModel,
                                  lognormal_from_median_p95)
from repro.netsim.network import Network
from repro.netsim.engine import Simulator
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.resolver.cache import DnsCache
from repro.resolver.forwarder import ForwardingResolver

#: The delivery domain and content name from the paper's prototype (§4).
CDN_DOMAIN = Name("mycdn.ciab.test")
QUERY_NAME = Name("video.demo1.mycdn.ciab.test")

#: srsLTE testbed radio profile: ~5 ms one-way UE->eNB with a moderate
#: tail, so the full UE<->P-GW wireless round trip is ~10 ms, matching
#: the paper's "approx. 10 ms" wireless component.
TESTBED_LTE = AccessProfile(
    name="testbed-lte",
    radio=lognormal_from_median_p95(4.2, 6.5, shift=2.0),
    access_backhaul=Constant(0.5),
    description="srsLTE B200mini testbed radio",
)

#: A 5G variant for the paper's "future 5G deployments will drastically
#: reduce this time" projection.
TESTBED_5G = AccessProfile(
    name="testbed-5g",
    radio=lognormal_from_median_p95(0.8, 1.6, shift=0.3),
    access_backhaul=Constant(0.2),
    description="hypothetical 5G NR swap-in for the same testbed",
)

# One-way WAN/LAN latencies (ms), tuned against the Figure 5 targets.
LAN_CDNS_LATENCY = lognormal_from_median_p95(2.6, 4.5, shift=1.0)
WAN_CDNS_LATENCY = lognormal_from_median_p95(23.0, 33.0, shift=12.0)
CARRIER_LDNS_LATENCY = lognormal_from_median_p95(50.7, 73.0, shift=30.0)
GOOGLE_DNS_LATENCY = lognormal_from_median_p95(49.7, 71.0, shift=30.0)
CLOUDFLARE_DNS_LATENCY = lognormal_from_median_p95(57.0, 86.0, shift=33.0)

#: Extra per-query processing cost when ECS is enabled (option parsing,
#: scope computation) at each DNS hop.
ECS_PROCESSING_OVERHEAD_MS = 0.15

#: The WAN C-DNS address; warmed resolvers name it as their upstream.
WAN_CDNS_IP = "203.0.113.53"


class Placement(NamedTuple):
    """One deployment: where the C-DNS sits and which resolver the UE asks.

    A host off the P-GW is ``(host name, ip, one-way latency)``.
    """

    label: str
    #: The C-DNS outside the k8s cluster (LAN or WAN, as ETSI/3GPP
    #: propose); ``None`` keeps it in the cluster beside the L-DNS.
    cdns: Optional[Tuple[str, str, LatencyModel]] = None
    #: A warmed resolver the UE asks; ``None`` is the MEC L-DNS.
    resolver: Optional[Tuple[str, str, LatencyModel]] = None


#: The six Figure 5 bars, in paper order.
DEPLOYMENTS: Dict[str, Placement] = {
    "mec-ldns-mec-cdns": Placement("MEC L-DNS w/ MEC C-DNS"),
    # The best case of the ETSI/3GPP-style split the paper compares against.
    "mec-ldns-lan-cdns": Placement("MEC L-DNS w/ LAN C-DNS", cdns=(
        "lan-cdns", "10.41.0.53", LAN_CDNS_LATENCY)),
    "mec-ldns-wan-cdns": Placement("MEC L-DNS w/ WAN C-DNS", cdns=(
        "wan-cdns", WAN_CDNS_IP, WAN_CDNS_LATENCY)),
    # The operator's L-DNS "connected via LAN behind the core network".
    "lan-ldns": Placement("LAN L-DNS", resolver=(
        "carrier-ldns", "172.20.0.53", CARRIER_LDNS_LATENCY)),
    "google-dns": Placement("Google DNS", resolver=(
        "google-dns", "8.8.8.8", GOOGLE_DNS_LATENCY)),
    "cloudflare-dns": Placement("Cloudflare DNS", resolver=(
        "cloudflare-dns", "1.1.1.1", CLOUDFLARE_DNS_LATENCY)),
}

DEPLOYMENT_KEYS = tuple(DEPLOYMENTS)
DEPLOYMENT_LABELS: Dict[str, str] = {
    key: placement.label for key, placement in DEPLOYMENTS.items()}
#: The bars resolved through the MEC L-DNS, which asks the C-DNS every
#: time (client-location-aware), and those a warmed resolver answers
#: with the one address it has cached (client-blind).
MEC_DEPLOYMENTS = tuple(key for key, placement in DEPLOYMENTS.items()
                        if placement.resolver is None)
WARMED_DEPLOYMENTS = tuple(key for key in DEPLOYMENTS
                           if key not in MEC_DEPLOYMENTS)
#: The bars the paper finds inside the 20 ms AR/VR envelope.
ENVELOPE_DEPLOYMENTS = ("mec-ldns-mec-cdns", "mec-ldns-lan-cdns")


class ResilienceConfig(NamedTuple):
    """Hardening knobs for running a deployment under injected faults.

    The Figure 5 defaults are deliberately fragile: the MEC C-DNS
    answers with TTL 0 (never cached, every query routed) and resolvers
    give a failing upstream one 2-second shot.  This bundle makes the
    resilient variant of the chaos experiment concrete:

    * ``answer_ttl`` > 0 lets the CoreDNS cache hold the C-DNS answer
      briefly, giving serve-stale something to serve;
    * ``serve_stale`` turns on RFC 8767 at the resolver caches;
    * ``coredns_upstream_timeout`` shortens the L-DNS's upstream wait so
      a dead C-DNS is detected inside the client's patience, not after.
    """

    serve_stale: bool = True
    answer_ttl: int = 2
    coredns_upstream_timeout: Optional[float] = 300.0


class Testbed(NamedTuple):
    """One instantiated deployment, ready to be measured."""

    key: str
    label: str
    sim: Simulator
    network: Network
    ue: UserEquipment
    epc: EvolvedPacketCore
    query_name: Name
    #: Host name where the tcpdump-analog trace should attach (the P-GW).
    gateway_host: str
    #: The MEC site; every Figure 5 deployment builds one.
    mec_site: Optional[MecCdnSite]
    #: Host name of the C-DNS the MEC L-DNS forwards to.
    cdns_host: str
    #: Whether resolution reaches the C-DNS, so is client-location-aware.
    localized: bool
    #: The address the query must resolve to (the MEC edge cache), used
    #: by the ECS experiment's correctness check where applicable.
    expected_cache_ips: List[str]


def _attach_ambient_telemetry(network: Network) -> None:
    """Wire the ambient telemetry (if any) into a freshly built network.

    ``repro.cli --trace-out/--metrics-out`` installs a default facade;
    experiments build testbeds through here, so the whole stack reports
    without every builder growing a telemetry parameter.  A no-op when
    no default is installed.
    """
    from repro import telemetry
    tel = telemetry.get_default()
    if tel is not None:
        tel.attach(network)


def build_testbed(deployment: str, seed: int = 0, ecs: bool = False,
                  profile: AccessProfile = TESTBED_LTE,
                  resilience: Optional[ResilienceConfig] = None) -> Testbed:
    """Build the testbed configured for one Figure 5 deployment.

    ``resilience`` hardens the deployment for fault-injection runs; the
    default ``None`` reproduces the Figure 5 configuration exactly.
    """
    if deployment not in DEPLOYMENTS:
        raise ValueError(f"unknown deployment {deployment!r}; "
                         f"expected one of {DEPLOYMENT_KEYS}")
    return _assemble(deployment, DEPLOYMENTS[deployment], seed, ecs, profile,
                     resilience)


def build_custom_cdns_testbed(cdns_one_way_ms: float,
                              seed: int = 0) -> Testbed:
    """The MEC-L-DNS testbed with the C-DNS at an arbitrary distance.

    Interpolates between the Figure 5 deployments: ``cdns_one_way_ms`` is
    the one-way latency from the P-GW to the C-DNS host.  Used by the
    envelope-sweep experiment to locate where resolution crosses the
    paper's 20 ms envelope.
    """
    if cdns_one_way_ms < 0:
        raise ValueError("C-DNS distance cannot be negative")
    placement = Placement(
        f"MEC L-DNS w/ C-DNS at {cdns_one_way_ms:.1f}ms",
        cdns=("custom-cdns", WAN_CDNS_IP, Constant(cdns_one_way_ms)))
    return _assemble(f"custom-cdns-{cdns_one_way_ms}ms", placement, seed)


def _assemble(key: str, placement: Placement, seed: int, ecs: bool = False,
              profile: AccessProfile = TESTBED_LTE,
              resilience: Optional[ResilienceConfig] = None) -> Testbed:
    """The LTE testbed with C-DNS and resolver where ``placement`` says."""
    sim = Simulator()
    network = Network(sim, RandomStreams(seed))
    _attach_ambient_telemetry(network)

    # Mobile access: UE == eNB -- S-GW -- P-GW.
    epc = EvolvedPacketCore(
        network, "lte", profile,
        sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
        public_ips=["198.51.100.1"])
    enb = epc.add_base_station("enb-1", "10.40.1.1")
    ue = UserEquipment(network, "ue-1", "10.45.0.2")
    enb.attach(ue)

    # MEC cluster nodes hang off the P-GW LAN (the paper's collocated
    # machines managed by k8s).
    nodes = []
    for index in range(3):
        node = network.add_host(f"mec-node-{index}", f"10.40.2.{10 + index}")
        network.add_link(node.name, epc.pgw.name, Constant(0.25),
                         name=f"mec-lan-{index}")
        nodes.append(node)
    for a, b in ((0, 1), (1, 2)):
        network.add_link(nodes[a].name, nodes[b].name, Constant(0.2),
                         name=f"mec-fabric-{a}{b}")

    catalog = ContentCatalog()
    catalog.add_object(QUERY_NAME, "/seg1.ts", 500_000)

    processing = (Constant(0.4 + ECS_PROCESSING_OVERHEAD_MS) if ecs
                  else Constant(0.4))

    # Unhardened is Figure 5 as published: no serve-stale, ATC-style TTL 0
    # (route every query, never pin a cache), the default upstream wait.
    hardening = resilience or ResilienceConfig(False, 0, None)
    external = placement.cdns
    site = MecCdnSite(
        network, "edge1", nodes, catalog,
        cdn_domain=CDN_DOMAIN,
        client_networks=["10.45.0.0/16", "10.40.0.0/16", "10.233.64.0/18"],
        cache_count=2,
        warm_caches=True,
        ecs_enabled=ecs,
        answer_ttl=hardening.answer_ttl,
        ldns_processing_delay=processing,
        cdns_processing_delay=processing,
        cdns_endpoint_override=Endpoint(external[1], 53) if external else None,
        serve_stale=hardening.serve_stale,
        coredns_upstream_timeout=hardening.coredns_upstream_timeout)
    cdns_host = external[0] if external else site.cdns_pod.host.name
    if external:
        zone = CoverageZone("all", ["0.0.0.0/0"], site.caches)
        TrafficRouter(network, epc.add_sgi_host(*external), CDN_DOMAIN,
                      zones=[zone], answer_ttl=hardening.answer_ttl,
                      ecs_enabled=ecs, processing_delay=processing)

    dns_target = site.ldns_endpoint
    expected_ips = [cache.endpoint.ip for cache in site.caches]
    if placement.resolver is not None:
        expected_ips = expected_ips[:1]  # the one address it has cached
        dns_target = _warmed_resolver(
            epc, placement.resolver, processing, expected_ips[0],
            hardening.serve_stale).endpoint
    ue.switch_dns(dns_target)
    return Testbed(
        key=key, label=placement.label,
        sim=sim, network=network, ue=ue, epc=epc,
        query_name=QUERY_NAME, gateway_host=epc.gateway_name,
        mec_site=site, cdns_host=cdns_host,
        localized=placement.resolver is None,
        expected_cache_ips=expected_ips)


def _warmed_resolver(epc: EvolvedPacketCore,
                     at: Tuple[str, str, LatencyModel],
                     processing: LatencyModel, cache_answer_ip: str,
                     serve_stale: bool) -> ForwardingResolver:
    """A resolver with the CDN A record already cached.

    Models the paper's observation that for established CDN domains "the
    A records TTL never expires at L-DNS": the measured latency is the
    path to the resolver plus its lookup, with no upstream traversal.
    """
    cache = DnsCache(serve_stale=serve_stale)
    cache.put_records(
        [ResourceRecord(QUERY_NAME, RecordType.A, 86400, A(cache_answer_ip))],
        now=0.0)
    return ForwardingResolver(epc.network, epc.add_sgi_host(*at),
                              upstreams=[Endpoint(WAN_CDNS_IP, 53)],
                              cache=cache, processing_delay=processing)


def add_provider_ldns(testbed: Testbed) -> ForwardingResolver:
    """Attach the carrier's L-DNS behind the core as a fallback target.

    §3's mitigation — "have DNS requests ... be forwarded to L-DNS on
    timeout from MEC DNS" — needs a provider resolver to fall back *to*.
    The MEC deployments don't build one, so fault scenarios add it here:
    a warmed resolver (the paper's never-expiring CDN A record) hanging
    off the P-GW at carrier-L-DNS distance.
    """
    return _warmed_resolver(
        testbed.epc, ("provider-ldns", "172.21.0.53", CARRIER_LDNS_LATENCY),
        Constant(0.4), testbed.expected_cache_ips[0], serve_stale=False)
