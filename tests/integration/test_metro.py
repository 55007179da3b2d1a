"""Metro-scale integration: edge site + mid tier + cloud, with referrals.

The full P2 story in one topology: content present at the edge resolves
and fetches locally; content only at the mid tier causes the edge C-DNS
to answer with the mid-tier C-DNS (marked as a referral), which a
tier-aware client follows; the latency gap between the two paths is the
paper's motivation in miniature.
"""

import pytest

from repro.cdn import (
    CacheServer,
    ContentCatalog,
    CoverageZone,
    HttpClient,
    TrafficRouter,
)
from repro.core import EdgeAwareClient, MecCdnSite
from repro.core.deployments import TESTBED_LTE
from repro.dnswire import Name
from repro.errors import ResolutionError
from repro.mobile import EvolvedPacketCore, UserEquipment
from repro.netsim import Constant, Network, RandomStreams, Simulator

CDN_DOMAIN = Name("mycdn.ciab.test")
EDGE_CONTENT = Name("video.demo1.mycdn.ciab.test")
LONGTAIL_CONTENT = Name("longtail.archive.mycdn.ciab.test")


class MetroWorld:
    """One edge MEC site, a mid tier at the core, a cloud origin."""

    def __init__(self, seed=73):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.epc = EvolvedPacketCore(
            self.net, "lte", TESTBED_LTE,
            sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
            public_ips=["198.51.100.1"])
        cell = self.epc.add_base_station("enb-1", "10.40.1.1")
        self.ue = UserEquipment(self.net, "ue-1", "10.45.0.2")
        cell.attach(self.ue)

        # Shared catalog: one popular object placed at the edge, one
        # long-tail object that lives only upstream.
        self.catalog = ContentCatalog()
        self.edge_item = self.catalog.add_object(EDGE_CONTENT, "/seg1.ts",
                                                 200_000)
        self.longtail_item = self.catalog.add_object(
            LONGTAIL_CONTENT, "/old.mp4", 300_000)

        # Cloud origin + far C-DNS.
        self.net.add_host("origin", "203.0.113.80")
        self.net.add_link(self.epc.pgw.name, "origin", Constant(25))
        self.origin = CacheServer(self.net, self.net.host("origin"),
                                  self.catalog, is_origin=True)

        # Mid tier beside the core: cache + C-DNS.
        self.net.add_host("mid-cache", "172.20.0.10")
        self.net.add_host("mid-cdns", "172.20.0.53")
        for name in ("mid-cache", "mid-cdns"):
            self.net.add_link(self.epc.pgw.name, name, Constant(8))
        self.net.add_link("mid-cache", "origin", Constant(20))
        self.mid_cache = CacheServer(self.net, self.net.host("mid-cache"),
                                     self.catalog,
                                     parent=self.origin.endpoint)
        self.mid_cache.warm([self.longtail_item])
        self.mid_cdns = TrafficRouter(
            self.net, self.net.host("mid-cdns"), CDN_DOMAIN,
            zones=[CoverageZone("core", ["0.0.0.0/0"], [self.mid_cache])])

        # The edge MEC site: serves only the popular delivery service.
        nodes = []
        for index in range(2):
            node = self.net.add_host(f"mec-node-{index}",
                                     f"10.40.2.{10 + index}")
            self.net.add_link(node.name, self.epc.pgw.name, Constant(0.25))
            nodes.append(node)
        self.net.add_link(nodes[0].name, nodes[1].name, Constant(0.2))
        self.site = MecCdnSite(
            self.net, "edge1", nodes, self.catalog,
            cdn_domain=CDN_DOMAIN,
            client_networks=["10.45.0.0/16", "10.40.0.0/16",
                             "10.233.64.0/18"],
            next_tier_cdns=self.mid_cdns.endpoint.ip)
        # Edge policy: only the popular service is edge-hosted.
        select_cache = self.site.cdns.select_cache
        self.site.cdns.select_cache = lambda qname, ip: (
            select_cache(qname, ip)
            if qname.is_subdomain_of(Name("demo1.mycdn.ciab.test"))
            else (None, 0))
        self.client = EdgeAwareClient(self.net, self.ue.host,
                                      self.site.ldns_endpoint)

    def resolve(self, name):
        return self.sim.run_until_resolved(
            self.sim.spawn(self.client.resolve(name)))

    def fetch(self, url, address):
        http = HttpClient(self.net, self.ue.host)
        return self.sim.run_until_resolved(
            self.sim.spawn(http.fetch(url, address)))


@pytest.fixture
def metro():
    return MetroWorld()


class TestEdgePath:
    def test_edge_content_resolves_locally(self, metro):
        result = metro.resolve(EDGE_CONTENT)
        assert result.referrals_followed == 0
        assert result.addresses[0] in [cache.endpoint.ip
                                       for cache in metro.site.caches]
        assert len(result.servers_queried) == 1
        assert result.latency_ms < 20

    def test_edge_fetch_is_a_local_hit(self, metro):
        result = metro.resolve(EDGE_CONTENT)
        fetch = metro.fetch(metro.edge_item.url, result.addresses[0])
        assert fetch.status == 200
        assert fetch.cache_hit


class TestReferralPath:
    def test_longtail_follows_referral_to_mid_tier(self, metro):
        result = metro.resolve(LONGTAIL_CONTENT)
        assert result.referrals_followed == 1
        assert result.addresses == [metro.mid_cache.endpoint.ip]
        # First the L-DNS (edge), then the mid-tier C-DNS directly.
        assert result.servers_queried[0] == metro.site.ldns_endpoint
        assert result.servers_queried[1] == metro.mid_cdns.endpoint

    def test_longtail_fetch_served_by_mid_cache(self, metro):
        result = metro.resolve(LONGTAIL_CONTENT)
        fetch = metro.fetch(metro.longtail_item.url, result.addresses[0])
        assert fetch.status == 200
        assert fetch.served_by == "mid-cache"

    def test_referral_costs_latency(self, metro):
        edge = metro.resolve(EDGE_CONTENT)
        longtail = metro.resolve(LONGTAIL_CONTENT)
        # The extra C-DNS round trip through the core is visible.
        assert longtail.latency_ms > edge.latency_ms + 10

    def test_edge_router_counted_the_referral(self, metro):
        metro.resolve(LONGTAIL_CONTENT)
        assert metro.site.cdns.referred_to_next_tier == 1
        assert metro.mid_cdns.routed == 1

    def test_plain_client_still_gets_an_address(self, metro):
        # A legacy stub ignores the marker: it receives the mid C-DNS
        # address as the answer (degraded, not broken).
        metro.ue.switch_dns(metro.site.ldns_endpoint)
        stub = metro.ue.stub()
        result = metro.sim.run_until_resolved(
            metro.sim.spawn(stub.query(LONGTAIL_CONTENT)))
        assert result.addresses == [metro.mid_cdns.endpoint.ip]


class TestReferralLoopGuard:
    def test_referral_loop_detected(self, metro):
        # Misconfigure the mid tier to refer everything back to itself.
        metro.mid_cdns.select_cache = lambda qname, ip: (None, 0)
        metro.mid_cdns.next_tier = metro.mid_cdns.endpoint.ip
        from repro.netsim.engine import ProcessFailed
        with pytest.raises(ProcessFailed) as excinfo:
            metro.resolve(LONGTAIL_CONTENT)
        assert isinstance(excinfo.value.__cause__, ResolutionError)
