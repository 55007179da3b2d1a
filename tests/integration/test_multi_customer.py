"""Integration: several CDN customers sharing one MEC site and cluster IP.

The paper's P2/§5 argument: "the proposed design can help promote reuse
of public IPs by assigning the same public IP for CDN domains of the many
CDN customers" — mobile clients interact with every CDN through the one
cluster IP bound to the MEC L-DNS.
"""

import pytest

from repro.cdn import CacheServer, ContentCatalog, CoverageZone, TrafficRouter
from repro.core import MecCdnSite
from repro.dnswire import Name
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import StubResolver


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, RandomStreams(83))
    nodes = [net.add_host(f"node-{i}", f"10.40.2.{10 + i}") for i in range(3)]
    net.add_link("node-0", "node-1", Constant(0.2))
    net.add_link("node-1", "node-2", Constant(0.2))
    net.add_host("ue", "10.45.0.2")
    net.add_link("ue", "node-0", Constant(5))
    catalog = ContentCatalog()
    catalog.add_object(Name("video.demo1.mycdn.ciab.test"), "/a.ts", 1000)
    site = MecCdnSite(net, "edge1", nodes, catalog)
    return sim, net, site


def onboard_second_customer(sim, net, site):
    """A second CDN brings its own router + cache onto the site."""
    catalog2 = ContentCatalog()
    catalog2.add_object(Name("img.othercdn.test"), "/b.png", 1000)
    cache_host = net.add_host("cdn2-cache", "10.40.5.10")
    net.add_link("cdn2-cache", "node-0", Constant(0.3))
    cache = CacheServer(net, cache_host, catalog2)
    cache.warm(catalog2.under_domain(Name("othercdn.test")))
    router_host = net.add_host("cdn2-router", "10.40.5.53")
    net.add_link("cdn2-router", "node-0", Constant(0.3))
    router = TrafficRouter(
        net, router_host, Name("othercdn.test"),
        zones=[CoverageZone("edge", ["10.0.0.0/8"], [cache])])
    site.publish_domain(Name("othercdn.test"), router.endpoint)
    return cache, router


class TestMultiCustomer:
    def query(self, sim, net, site, qname):
        stub = StubResolver(net, net.host("ue"), site.ldns_endpoint)
        return sim.run_until_resolved(sim.spawn(stub.query(Name(qname))))

    def test_both_customers_resolve_through_one_cluster_ip(self, world):
        sim, net, site = world
        cache2, router2 = onboard_second_customer(sim, net, site)
        first = self.query(sim, net, site, "video.demo1.mycdn.ciab.test")
        second = self.query(sim, net, site, "img.othercdn.test")
        assert first.status == "NOERROR"
        assert second.status == "NOERROR"
        assert second.addresses == [cache2.endpoint.ip]
        # Both went to the same MEC L-DNS cluster IP.
        assert first.server == second.server == site.ldns_endpoint

    def test_second_domain_blocked_until_published(self, world):
        sim, net, site = world
        result = self.query(sim, net, site, "img.othercdn.test")
        assert result.status == "REFUSED"  # not in the public namespace yet

    def test_customers_isolated_by_stub_domain(self, world):
        sim, net, site = world
        cache2, router2 = onboard_second_customer(sim, net, site)
        # Customer 2's router never sees customer 1's queries.
        self.query(sim, net, site, "video.demo1.mycdn.ciab.test")
        assert router2.routed == 0
        self.query(sim, net, site, "img.othercdn.test")
        assert router2.routed == 1
