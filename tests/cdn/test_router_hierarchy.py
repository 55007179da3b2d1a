"""Tests for the traffic router (C-DNS)."""

import pytest

from repro.cdn.allocation import HashRing
from repro.cdn.cache_server import CacheServer
from repro.cdn.content import ContentCatalog
from repro.cdn.router import CoverageZone, TrafficRouter
from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.dnswire.message import make_query
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver.stub import StubResolver
from repro.resolver.exchange import exchange


class RouterScenario:
    """Two edge caches behind an edge router, one cache behind a mid router."""

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(21))
        self.catalog = ContentCatalog()
        # Hosts.
        self.net.add_host("client", "10.45.0.2")
        self.net.add_host("edge1", "10.233.1.10")
        self.net.add_host("edge2", "10.233.1.11")
        self.net.add_host("mid1", "172.16.5.10")
        self.net.add_host("edge-router", "10.233.0.53")
        self.net.add_host("mid-router", "172.16.5.53")
        for name in ("edge1", "edge2", "edge-router"):
            self.net.add_link("client", name, Constant(2))
        for name in ("mid1", "mid-router"):
            self.net.add_link("client", name, Constant(10))
            self.net.add_link("edge1", name, Constant(8))
            self.net.add_link("edge2", name, Constant(8))

        self.mid = CacheServer(self.net, self.net.host("mid1"), self.catalog)
        self.edge1 = CacheServer(self.net, self.net.host("edge1"),
                                 self.catalog)
        self.edge2 = CacheServer(self.net, self.net.host("edge2"),
                                 self.catalog)

        domain = Name("mycdn.ciab.test")
        edge_zone = CoverageZone("edge", ["10.45.0.0/16"],
                                 HashRing([self.edge1, self.edge2]))
        self.edge_router = TrafficRouter(
            self.net, self.net.host("edge-router"), domain,
            zones=[edge_zone], ecs_enabled=True)
        mid_zone = CoverageZone("mid", ["10.0.0.0/8", "172.16.0.0/12"],
                                HashRing([self.mid]))
        self.mid_router = TrafficRouter(
            self.net, self.net.host("mid-router"), domain,
            zones=[mid_zone])
        self.stub = StubResolver(self.net, self.net.host("client"),
                                 self.edge_router.endpoint)

    def query(self, name="video.demo1.mycdn.ciab.test",
              rtype=RecordType.A):
        future = self.sim.spawn(self.stub.query(Name(name), rtype))
        return self.sim.run_until_resolved(future)

    def ask_with_edns(self, edns, name="video.demo1.mycdn.ciab.test"):
        """One query carrying ``edns``, straight to the edge router."""
        query = make_query(Name(name), msg_id=7, edns=edns)
        return self.sim.run_until_resolved(self.sim.spawn(exchange(
            self.net.host("client"), query, self.edge_router.endpoint,
            1000.0)))


@pytest.fixture
def scenario():
    return RouterScenario()


class TestTrafficRouter:
    def test_routes_to_edge_cache(self, scenario):
        result = scenario.query()
        assert result.status == "NOERROR"
        assert result.addresses[0] in ("10.233.1.10", "10.233.1.11")
        assert scenario.edge_router.routed == 1

    def test_consistent_hash_is_stable(self, scenario):
        first = scenario.query().addresses[0]
        # Re-query several times: same content name -> same cache.
        for _ in range(5):
            assert scenario.query().addresses[0] == first

    def test_different_content_spreads(self, scenario):
        answers = {scenario.query(f"video{i}.demo1.mycdn.ciab.test").addresses[0]
                   for i in range(20)}
        assert answers == {"10.233.1.10", "10.233.1.11"}

    def test_offline_cache_skipped(self, scenario):
        first = scenario.query().addresses[0]
        offline = (scenario.edge1 if first == "10.233.1.10" else scenario.edge2)
        offline.online = False
        rerouted = scenario.query().addresses[0]
        assert rerouted != first

    def test_out_of_domain_refused(self, scenario):
        result = scenario.query("www.google.com")
        assert result.status == "REFUSED"

    def test_non_a_query_gets_empty_noerror(self, scenario):
        result = scenario.query(rtype=RecordType.TXT)
        assert result.status == "NOERROR"
        assert not result.response.answers

    def test_uncovered_client_with_no_default_servfails(self, scenario):
        # mid_router has zones covering 10/8 and 172.16/12 only.
        scenario.net.add_host("outsider", "203.0.113.200")
        scenario.net.add_link("outsider", "mid-router", Constant(1))
        stub = StubResolver(scenario.net, scenario.net.host("outsider"),
                            scenario.mid_router.endpoint)
        future = scenario.sim.spawn(
            stub.query(Name("video.demo1.mycdn.ciab.test")))
        result = scenario.sim.run_until_resolved(future)
        assert result.status == "SERVFAIL"

    def test_ecs_subnet_drives_zone_selection(self, scenario):
        # A query whose ECS places the client outside the edge zone.
        ecs = ClientSubnet("203.0.113.0", 24)
        response = scenario.ask_with_edns(Edns(options=[ecs]))
        # No zone covers 203.0.113/24 and there is no default: SERVFAIL.
        assert response.rcode == Rcode.SERVFAIL

    def test_ecs_scope_stamped(self, scenario):
        ecs = ClientSubnet("10.45.0.0", 24)
        response = scenario.ask_with_edns(Edns(options=[ecs]))
        assert response.rcode == Rcode.NOERROR
        response_ecs = response.edns.client_subnet
        assert response_ecs is not None
        assert response_ecs.scope_prefix == 16  # matched 10.45.0.0/16 zone

    def test_coverage_zone_longest_prefix(self):
        zone = CoverageZone("z", ["10.0.0.0/8", "10.45.0.0/16"],
                            HashRing([]))
        matched, prefix = zone.covers("10.45.1.1")
        assert matched and prefix == 16
        matched, prefix = zone.covers("10.1.1.1")
        assert matched and prefix == 8
        matched, _ = zone.covers("192.0.2.1")
        assert not matched

    def test_coverage_matches_ipaddress_for_every_input(self):
        # covers() parses each CIDR once and matches by mask-and-compare;
        # the answer must be what per-call ipaddress parsing gave.
        import ipaddress
        cidrs = ["0.0.0.0/0", "10.0.0.0/8", "10.45.0.0/16", "10.45.0.128/25",
                 "172.16.0.0/12", "192.0.2.7/32", "255.255.255.255/32"]
        probes = ["0.0.0.0", "9.255.255.255", "10.0.0.0", "10.45.0.127",
                  "10.45.0.128", "10.45.255.255", "10.46.0.0", "172.15.255.255",
                  "172.16.0.1", "172.31.255.255", "172.32.0.0", "192.0.2.6",
                  "192.0.2.7", "192.0.2.8", "255.255.255.255"]
        for skip in range(len(cidrs)):
            networks = cidrs[skip:]
            zone = CoverageZone("z", networks, HashRing([]))
            for ip in probes:
                lengths = [ipaddress.IPv4Network(cidr).prefixlen
                           for cidr in networks
                           if ipaddress.IPv4Address(ip)
                           in ipaddress.IPv4Network(cidr)]
                expected = (bool(lengths), max(lengths, default=0))
                assert zone.covers(ip) == expected, (networks, ip)
        zone = CoverageZone("empty", [], HashRing([]))
        assert zone.covers("10.0.0.1") == (False, 0)

    def test_coverage_zone_still_rejects_bad_input_every_time(self):
        # Host bits set.
        zone = CoverageZone("z", ["10.45.0.1/16"], HashRing([]))
        for _ in range(2):
            with pytest.raises(ValueError):
                zone.covers("10.45.0.1")
        zone = CoverageZone("z", ["10.0.0.0/8"], HashRing([]))
        for _ in range(2):
            with pytest.raises(ValueError):
                zone.covers("10.0.0.256")

    def test_coverage_zone_sees_networks_added_later(self):
        zone = CoverageZone("z", ["10.0.0.0/8"], HashRing([]))
        assert zone.covers("192.0.2.1") == (False, 0)
        zone.networks.append("192.0.2.0/24")
        assert zone.covers("192.0.2.1") == (True, 24)
