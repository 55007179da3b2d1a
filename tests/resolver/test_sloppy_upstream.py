"""Sloppy peers, one row of the docs/PROTOCOLS.md table per behaviour.

First row: a peer that answers under the wrong transaction id.  The
reply is well formed and carries the right answer, but its id is not
the query's.  Every client reaches the wire through
:func:`repro.resolver.exchange`, so every client discards it.  The other
rows are upstream answers the L-DNS cache must not take at their word:
an unrelated name in the answer section (beside the answer, or behind a
CNAME), a TTL of 0, an A record in the additional section.  Every
scenario runs with telemetry off and on, and the two runs must agree.
"""

import pytest

from repro import telemetry
from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord, make_response
from repro.dnswire.rdata import A, CNAME
from repro.errors import WireFormatError
from repro.mec.coredns import CoreDnsServer
from repro.mec.cluster import Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver.chain import CachePlugin, ChainServer, ForwardPlugin
from repro.resolver.server import DnsServer
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver

QNAME = Name("video.sloppy.test")
SLOPPY_IP, HONEST_IP = "203.0.113.66", "203.0.113.77"
SLOPPY_ANSWER, HONEST_ANSWER = "198.18.0.66", "198.18.0.77"
#: A name outside the question, and the address a sloppy upstream
#: attaches to it.
VICTIM = Name("victim.other.test")
PLANTED = ResourceRecord(VICTIM, RecordType.A, 300, A("6.6.6.6"))
#: The honest upstream's own answer to the question.
HONEST = ResourceRecord(QNAME, RecordType.A, 300, A(HONEST_ANSWER))


class AnswerAll(DnsServer):
    """Answers every question with one A record.

    ``ttl`` is that record's TTL.  ``extra`` maps a section keyword of
    :func:`make_response` (``answers``, ``additionals``) to the records
    that section holds in the reply to :data:`QNAME` only.
    """

    def __init__(self, network, host, address: str, id_mask: int = 0) -> None:
        super().__init__(network, host)
        self.address = address
        self.id_mask = id_mask
        self.ttl = 300
        self.extra = {}

    def handle_query(self, query, client, trace):
        sections = {"answers": [ResourceRecord(
            query.question.name, RecordType.A, self.ttl, A(self.address))]}
        if query.question.name == QNAME:
            sections.update(self.extra)
        response = make_response(query, **sections)
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

    def dig(self, server: Endpoint, qname: Name = QNAME):
        stub = StubResolver(self.net, self.net.host("client"), server,
                            policy=RetryPolicy(retries=0, timeout_ms=1000))
        result = self.run(stub.query(qname))
        return result.status, result.addresses, result.query_time_ms

    def digs_through_a_forwarder(self, *qnames: Name):
        """Ask a cache → forward chain on ``middle`` (upstream: honest)
        each name in turn: the answers' addresses and TTLs, and how many
        queries the chain forwarded."""
        forward = ForwardPlugin(self.honest.endpoint)
        forwarder = ChainServer(self.net, self.net.host("middle"),
                                [CachePlugin(), forward])
        stub = StubResolver(self.net, self.net.host("client"),
                            forwarder.endpoint,
                            policy=RetryPolicy(retries=0, timeout_ms=1000))
        answers = [[(record.rdata.to_text(), record.ttl)
                    for record in self.run(stub.query(qname)).response.answers]
                   for qname in qnames]
        return answers, forward.forwarded


def served_alike(scenario):
    """Run ``scenario(world)`` unobserved and observed; results must agree."""
    plain, observed = scenario(World(False)), scenario(World(True))
    assert observed == plain
    return plain


def test_forwarder_with_only_a_sloppy_upstream_servfails_and_caches_nothing():
    def scenario(world):
        cache, forward = CachePlugin(), ForwardPlugin(world.sloppy.endpoint)
        forwarder = ChainServer(world.net, world.net.host("middle"),
                                [cache, forward])
        return world.dig(forwarder.endpoint), forward.forwarded, \
            len(cache.cache)

    (status, addresses, _), forwarded, cached = served_alike(scenario)
    assert (status, addresses) == ("SERVFAIL", [])
    assert (forwarded, cached) == (1, 0)


def test_coredns_stub_domain_servfails():
    def scenario(world):
        orchestrator = Orchestrator(world.net, "edge1")
        orchestrator.register_node(world.net.host("middle"))
        coredns = CoreDnsServer(
            world.net, world.net.host("middle"), orchestrator,
            stub_domains={Name("sloppy.test"): world.sloppy.endpoint})
        return world.dig(coredns.endpoint), coredns.stub.forwarded, \
            len(coredns.cache_plugin.cache)

    (status, addresses, _), forwarded, cached = served_alike(scenario)
    assert (status, addresses) == ("SERVFAIL", [])
    assert (forwarded, cached) == (1, 0)


def test_fallback_client_takes_the_provider_answer():
    def scenario(world):
        client = StubResolver(world.net, world.net.host("client"),
                              world.sloppy.endpoint,
                              RetryPolicy(retries=1, timeout_ms=30,
                                          backoff=100.0),
                              fallback=world.honest.endpoint)
        result = world.run(client.query(QNAME))
        return result.addresses, result.server, result.query_time_ms, \
            client.queries_issued

    addresses, server, _, sent = served_alike(scenario)
    assert addresses == [HONEST_ANSWER]
    assert (server, sent) == (Endpoint(HONEST_IP, 53), 2)


def test_bare_stub_raises_transaction_id_mismatch():
    def scenario(world):
        with pytest.raises(ProcessFailed) as excinfo:
            world.dig(world.sloppy.endpoint)
        assert isinstance(excinfo.value.__cause__, WireFormatError)
        return str(excinfo.value.__cause__), world.sim.now

    message, _ = served_alike(scenario)
    assert message == "transaction id mismatch"


#: The reply to QNAME, relayed whole, and the victim's own address.
_BESIDE = [(HONEST_ANSWER, 300), ("6.6.6.6", 300)]
_BEHIND = [(VICTIM.to_text(), 300), ("6.6.6.6", 300)]
_VICTIMS_OWN = [(HONEST_ANSWER, 300)]


@pytest.mark.parametrize("answers, digs", [
    # An unrelated name beside the answer.
    ([HONEST, PLANTED], [(QNAME, _BESIDE), (VICTIM, _VICTIMS_OWN)]),
    # QNAME CNAME victim; victim A.  The question's name owns only the
    # CNAME, which answers no A query, so a repeat goes upstream too.
    ([ResourceRecord(QNAME, RecordType.CNAME, 300, CNAME(VICTIM)), PLANTED],
     [(QNAME, _BEHIND), (VICTIM, _VICTIMS_OWN), (QNAME, _BEHIND)]),
], ids=["beside", "behind-a-cname"])
def test_forwarder_caches_no_answer_record_outside_the_question(answers,
                                                                digs):
    qnames, expected = zip(*digs)

    def scenario(world):
        world.honest.extra = {"answers": answers}
        return world.digs_through_a_forwarder(*qnames)

    seen, forwarded = served_alike(scenario)
    assert seen == list(expected)
    assert forwarded == len(qnames)  # no dig was answered from the cache


def test_forwarder_relays_a_ttl_0_answer_and_does_not_cache_it():
    def scenario(world):
        world.honest.ttl = 0
        return world.digs_through_a_forwarder(QNAME, QNAME)

    (first, second), forwarded = served_alike(scenario)
    assert first == second == [(HONEST_ANSWER, 0)]  # not rewritten to 300
    assert forwarded == 2


def test_forwarder_serves_no_additional_record_as_an_answer():
    def scenario(world):
        world.honest.extra = {"additionals": [PLANTED]}
        return world.digs_through_a_forwarder(QNAME, VICTIM)

    (first, second), forwarded = served_alike(scenario)
    assert first == [(HONEST_ANSWER, 300)]
    assert second == [(HONEST_ANSWER, 300)]
    assert forwarded == 2
