"""A peer that answers under the wrong transaction id, seen by every client.

First row of the sloppy-peer table in docs/PROTOCOLS.md: the reply is
well formed and carries the right answer, but its id is not the query's.
Every client reaches the wire through :func:`repro.resolver.exchange`,
so every client discards it — and does so alike whether or not telemetry
is watching (each scenario runs both ways and must agree).
"""

import pytest

from repro import telemetry
from repro.core.fallback import FallbackClient
from repro.dnswire import Name, RecordType, ResourceRecord
from repro.dnswire.message import make_response
from repro.dnswire.rdata import A
from repro.errors import WireFormatError
from repro.mec import CoreDnsServer, Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver import (DnsServer, ForwardingResolver, RecursiveResolver,
                            RetryPolicy, StubResolver)
from repro.resolver.recursive import root_hints_from

QNAME = Name("video.sloppy.test")
SLOPPY_IP, HONEST_IP = "203.0.113.66", "203.0.113.77"
SLOPPY_ANSWER, HONEST_ANSWER = "198.18.0.66", "198.18.0.77"


class AnswerAll(DnsServer):
    """Answers every question with one A record."""

    def __init__(self, network, host, address: str, id_mask: int = 0) -> None:
        super().__init__(network, host)
        self.address = address
        self.id_mask = id_mask

    def handle_query(self, query, client):
        response = make_response(query, answers=[ResourceRecord(
            query.question.name, RecordType.A, 300, A(self.address))])
        response.msg_id = query.msg_id ^ self.id_mask
        return response


class World:
    """client --1-- middle --5-- {sloppy, honest} (and client --5-- both)."""

    def __init__(self, observed: bool) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(23))
        for name, ip in (("client", "10.45.0.2"), ("middle", "10.40.2.10"),
                         ("sloppy", SLOPPY_IP), ("honest", HONEST_IP)):
            self.net.add_host(name, ip)
        self.net.add_link("client", "middle", Constant(1))
        for upstream in ("sloppy", "honest"):
            self.net.add_link("middle", upstream, Constant(5))
            self.net.add_link("client", upstream, Constant(5))
        self.tel = telemetry.Telemetry().attach(self.net) if observed else None
        self.sloppy = AnswerAll(self.net, self.net.host("sloppy"),
                                SLOPPY_ANSWER, id_mask=0x5555)
        self.honest = AnswerAll(self.net, self.net.host("honest"),
                                HONEST_ANSWER)

    def run(self, process):
        return self.sim.run_until_resolved(self.sim.spawn(process))

    def dig(self, server: Endpoint):
        stub = StubResolver(self.net, self.net.host("client"), server,
                            policy=RetryPolicy(retries=0, timeout_ms=1000))
        result = self.run(stub.query(QNAME))
        return result.status, result.addresses, result.query_time_ms


def served_alike(scenario):
    """Run ``scenario(world)`` unobserved and observed; results must agree."""
    plain, observed = scenario(World(False)), scenario(World(True))
    assert observed == plain
    return plain


def test_forwarder_with_only_a_sloppy_upstream_servfails_and_caches_nothing():
    def scenario(world):
        forwarder = ForwardingResolver(
            world.net, world.net.host("middle"),
            upstreams=[world.sloppy.endpoint], upstream_timeout=50)
        return world.dig(forwarder.endpoint), forwarder.forwarded, \
            len(forwarder.cache)

    (status, addresses, _), forwarded, cached = served_alike(scenario)
    assert (status, addresses) == ("SERVFAIL", [])
    assert (forwarded, cached) == (1, 0)


def test_forwarder_moves_on_to_an_honest_upstream():
    def scenario(world):
        forwarder = ForwardingResolver(
            world.net, world.net.host("middle"),
            upstreams=[world.sloppy.endpoint, world.honest.endpoint],
            upstream_timeout=50)
        return world.dig(forwarder.endpoint), forwarder.forwarded

    (status, addresses, _), forwarded = served_alike(scenario)
    assert (status, addresses) == ("NOERROR", [HONEST_ANSWER])
    assert forwarded == 2


def test_coredns_stub_domain_servfails():
    def scenario(world):
        orchestrator = Orchestrator(world.net, "edge1")
        orchestrator.register_node(world.net.host("middle"))
        coredns = CoreDnsServer(
            world.net, world.net.host("middle"), orchestrator,
            stub_domains={Name("sloppy.test"): world.sloppy.endpoint})
        assert coredns.cache_plugin is not None
        return world.dig(coredns.endpoint), coredns.stub.forwarded, \
            len(coredns.cache_plugin.cache)

    (status, addresses, _), forwarded, cached = served_alike(scenario)
    assert (status, addresses) == ("SERVFAIL", [])
    assert (forwarded, cached) == (1, 0)


def test_fallback_client_takes_the_provider_answer():
    def scenario(world):
        client = FallbackClient(world.net, world.net.host("client"),
                                mec_dns=world.sloppy.endpoint,
                                provider_ldns=world.honest.endpoint)
        result = world.run(client.timeout_fallback(QNAME))
        return result.addresses, result.used_fallback, result.latency_ms, \
            client.provider_wins

    addresses, used_fallback, _, provider_wins = served_alike(scenario)
    assert addresses == [HONEST_ANSWER]
    assert used_fallback and provider_wins == 1


def test_recursive_resolver_servfails():
    def scenario(world):
        resolver = RecursiveResolver(
            world.net, world.net.host("middle"),
            root_hints_from(("a.root", SLOPPY_IP)), upstream_timeout=50)
        return world.dig(resolver.endpoint), resolver.upstream_queries_sent

    (status, addresses, _), sent = served_alike(scenario)
    assert (status, addresses) == ("SERVFAIL", [])
    assert sent == 1


def test_bare_stub_raises_transaction_id_mismatch():
    def scenario(world):
        with pytest.raises(ProcessFailed) as excinfo:
            world.dig(world.sloppy.endpoint)
        assert isinstance(excinfo.value.__cause__, WireFormatError)
        return str(excinfo.value.__cause__), world.sim.now

    message, _ = served_alike(scenario)
    assert message == "transaction id mismatch"
