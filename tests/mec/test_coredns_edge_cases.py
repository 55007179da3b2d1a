"""Edge cases in the CoreDNS analog: negative caching, dead stubs, TTLs."""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec.coredns import CoreDnsServer
from repro.mec.cluster import Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.stub import StubResolver


def build_zone():
    zone = Zone(Name("example.com"))
    zone.add(ResourceRecord(Name("example.com"), RecordType.SOA, 300,
                            SOA(Name("ns.example.com"),
                                Name("a.example.com"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("example.com"), RecordType.NS, 300,
                            NS(Name("ns.example.com"))))
    zone.add(ResourceRecord(Name("www.example.com"), RecordType.A, 300,
                            A("198.18.0.9")))
    zone.add(ResourceRecord(Name("zero.example.com"), RecordType.A, 0,
                            A("198.18.0.10")))
    return zone


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, RandomStreams(19))
    node = net.add_host("node", "10.40.2.10")
    net.add_host("ue", "10.45.0.2")
    net.add_host("upstream", "203.0.113.10")
    net.add_link("ue", "node", Constant(2))
    net.add_link("node", "upstream", Constant(20))
    AuthoritativeServer(net, net.host("upstream"), [build_zone()])
    orch = Orchestrator(net, "edge1")
    orch.register_node(node)
    coredns = CoreDnsServer(net, node, orch,
                            upstream=Endpoint("203.0.113.10", 53))
    stub = StubResolver(net, net.host("ue"), coredns.endpoint)
    return sim, net, coredns, stub


def ask(sim, stub, name):
    return sim.run_until_resolved(sim.spawn(stub.query(Name(name))))


class TestCoreDnsEdgeCases:
    def test_nxdomain_negatively_cached(self, world):
        sim, net, coredns, stub = world
        first = ask(sim, stub, "ghost.example.com")
        assert first.status == "NXDOMAIN"
        forwarded = coredns.forward_plugin.forwarded
        second = ask(sim, stub, "ghost.example.com")
        assert second.status == "NXDOMAIN"
        assert coredns.forward_plugin.forwarded == forwarded
        assert second.query_time_ms < first.query_time_ms

    def test_zero_ttl_answers_never_cached(self, world):
        sim, net, coredns, stub = world
        ask(sim, stub, "zero.example.com")
        ask(sim, stub, "zero.example.com")
        assert coredns.forward_plugin.forwarded == 2

    def test_positive_cache_expires(self, world):
        sim, net, coredns, stub = world
        ask(sim, stub, "www.example.com")
        sim.run(until=sim.now + 400 * 1000)  # beyond the 300s TTL
        ask(sim, stub, "www.example.com")
        assert coredns.forward_plugin.forwarded == 2

    def test_dead_stub_domain_upstream_servfails(self, world):
        sim, net, coredns, stub = world
        coredns.add_stub_domain(Name("dead.test"),
                                Endpoint("10.99.9.9", 53))
        coredns.stub.timeout = 50
        result = ask(sim, stub, "x.dead.test")
        assert result.status == "SERVFAIL"
        # The client retries SERVFAIL like a transport failure, so the
        # stub-domain plugin forwards once per client attempt.
        assert result.attempts == stub.policy.retries + 1
        assert coredns.stub.forwarded == stub.policy.retries + 1

    def test_stub_domain_beats_default_forward(self, world):
        sim, net, coredns, stub = world
        # example.com now has a dedicated (dead) upstream: the default
        # forward path must NOT be used as a silent fallback.
        coredns.add_stub_domain(Name("example.com"),
                                Endpoint("10.99.9.9", 53))
        coredns.stub.timeout = 50
        result = ask(sim, stub, "www.example.com")
        assert result.status == "SERVFAIL"
        assert coredns.forward_plugin.forwarded == 0
