"""A sent query is read-only on both sides.

The server serves the sender's own :class:`Message` (it rides the
datagram), and the sender keeps reading it after the send: the reply's
id check and the TCP re-send of ``cached_wire(query)``.  So no server may
change a query it received.  These tests record every query
``resolver.exchange`` sends, run the deployments and the experiments
that touch EDNS at small size, and check each query's wire and option
count after its reply against what was sent.
"""

import pytest

from repro.dnswire import (A, Edns, Message, Name, RecordType, ResourceRecord,
                           cached_wire, make_query)
from repro.experiments import churn, ecs, figure5, overload
from repro.mec import CoreDnsServer, Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.socket import UdpSocket
from repro.resolver import AuthoritativeServer
from repro.resolver.exchange import exchange
from tests.mec.test_coredns import build_zone


@pytest.fixture
def sent(monkeypatch):
    """``(query, wire, option count)`` for every query sent with a view."""
    recorded = []
    request = UdpSocket.request

    def recording(sock, payload, dst, timeout, ctx=None, view=None):
        if isinstance(view, Message):
            edns = view.edns
            recorded.append((view, payload,
                             None if edns is None else len(edns.options)))
        return request(sock, payload, dst, timeout, ctx=ctx, view=view)

    monkeypatch.setattr(UdpSocket, "request", recording)
    return recorded


def assert_unchanged(recorded):
    for query, wire, options in recorded:
        assert query.to_wire() == wire, query
        assert (None if query.edns is None
                else len(query.edns.options)) == options, query


RUNS = {
    "figure5": (figure5.EXPERIMENT, {"queries": 4}),
    "figure5-ecs": (figure5.EXPERIMENT, {"queries": 4, "ecs": True}),
    "ecs": (ecs.EXPERIMENT, {"queries": 4}),
    "churn": (churn.EXPERIMENT, {"queries": 4}),
    "overload": (overload.EXPERIMENT, {}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exchanged_queries_leave_their_servers_unchanged(name, sent):
    experiment, overrides = RUNS[name]
    experiment.run_serial(**overrides)
    assert sent, "the run sent no query through exchange()"
    assert_unchanged(sent)
    if name in ("ecs", "figure5-ecs"):
        # CoreDNS injected ECS on a copy and forwarded the copy's EDNS.
        assert any(query.edns is not None
                   and query.edns.client_subnet is not None
                   for query, _, _ in sent)


# -- ecs_inject, one hop and a forwarded chain --------------------------------

CLIENT_IP, FIRST_IP, SECOND_IP, AUTH_IP = (
    "10.45.0.2", "10.40.2.10", "10.40.3.10", "10.40.4.4")


def build_chain(first_injects, answers=1):
    """client -> CoreDNS -> CoreDNS -> authoritative for example.com.

    The first hop forwards with its client's EDNS by reference
    (``forward_ecs``); the second always injects ECS.
    """
    sim = Simulator()
    net = Network(sim, RandomStreams(3))
    for name, ip in (("client", CLIENT_IP), ("first", FIRST_IP),
                     ("second", SECOND_IP), ("auth", AUTH_IP)):
        net.add_host(name, ip)
    for left, right in (("client", "first"), ("first", "second"),
                        ("second", "auth")):
        net.add_link(left, right, Constant(1))
    zone = build_zone("example.com", "198.18.1.1")
    for index in range(1, answers):
        zone.add(ResourceRecord(Name("video.example.com"), RecordType.A, 300,
                                A(f"198.18.2.{index}")))
    AuthoritativeServer(net, net.host("auth"), [zone])
    orchestrator = Orchestrator(net, "edge1")
    CoreDnsServer(net, net.host("second"), orchestrator,
                  upstream=Endpoint(AUTH_IP, 53), ecs_inject=True)
    CoreDnsServer(net, net.host("first"), orchestrator,
                  upstream=Endpoint(SECOND_IP, 53), ecs_inject=first_injects)
    return sim, net


def ask(sim, net, query):
    wire = cached_wire(query)
    response = sim.run_until_resolved(sim.spawn(exchange(
        net.host("client"), query, Endpoint(FIRST_IP, 53), 1000.0)))
    assert cached_wire(query) == query.to_wire() == wire
    return response


def test_ecs_inject_leaves_the_client_query_untouched():
    sim, net = build_chain(first_injects=True)
    query = make_query(Name("video.example.com"), msg_id=7)
    response = ask(sim, net, query)
    assert query.edns is None
    assert response.edns.client_subnet.address == "10.45.0.0"


def test_ecs_inject_at_a_later_hop_does_not_reach_the_client():
    # The first hop hands the client's Edns object on by reference; the
    # second injects, and must do so on a copy.
    sim, net = build_chain(first_injects=False)
    edns = Edns()
    query = make_query(Name("video.example.com"), msg_id=9, edns=edns)
    response = ask(sim, net, query)
    assert query.edns is edns and edns.options == []
    assert response.edns.client_subnet.address == "10.40.2.0"


def test_the_injected_copy_sizes_the_reply():
    # No EDNS from the client would cap the reply at 512 octets; the
    # injected copy's EDNS (default payload) is what the reply is sized
    # for, so this ~700-octet answer is not truncated.
    sim, net = build_chain(first_injects=True, answers=40)
    query = make_query(Name("video.example.com"), msg_id=11)
    response = ask(sim, net, query)
    assert len(cached_wire(response)) > 512
    assert not response.flags.tc
    assert len(response.answers) == 40
