"""A sent message is read-only on both sides, and its bytes are its own.

The server serves the sender's own :class:`Message` (it rides the
datagram), and the sender keeps reading it after the send: the reply's
id check.  So no server may change a query it received.  A datagram's
bytes are encoded from that message only when something reads them, so
no client may change a reply it received either: bytes read late must
be the bytes sent.  These tests record every query ``resolver.exchange``
sends and every reply a server sends, run the deployments and the
experiments that touch EDNS at small size, and check each message's
wire and option count after its reply against what was sent.
"""

import pytest

from repro.dnswire.edns import Edns
from repro.dnswire.message import Message, cached_wire, make_query
from repro.dnswire.name import Name
from repro.experiments import churn, ecs, figure5, overload
from repro.mec.coredns import CoreDnsServer
from repro.mec.cluster import Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.packet import Datagram
from repro.netsim.socket import UdpSocket
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.exchange import exchange
from repro.telemetry import Telemetry
from tests.mec.test_coredns import build_zone


@pytest.fixture
def sent(monkeypatch):
    """``(query, wire, option count)`` for every query sent as a message.

    The wire is encoded here, at the send: the datagram encodes only if
    something reads its bytes.
    """
    recorded = []
    request = UdpSocket.request

    def recording(sock, payload, dst, timeout, ctx=None, encode=None):
        if isinstance(payload, Message):
            edns = payload.edns
            recorded.append((payload, cached_wire(payload),
                             None if edns is None else len(edns.options)))
        return request(sock, payload, dst, timeout, ctx, encode)

    monkeypatch.setattr(UdpSocket, "request", recording)
    return recorded


@pytest.fixture
def replies(monkeypatch):
    """``(datagram, wire)`` for every reply a server sends, wire at send."""
    recorded = []
    send = Network.send

    def recording(net, datagram, from_host):
        view = datagram.view
        if isinstance(view, Message) and view.flags.qr:
            recorded.append((datagram, cached_wire(view)))
        send(net, datagram, from_host)

    monkeypatch.setattr(Network, "send", recording)
    return recorded


def assert_unchanged(recorded):
    for query, wire, options in recorded:
        assert query.to_wire() == wire, query
        assert (None if query.edns is None
                else len(query.edns.options)) == options, query


RUNS = {
    "figure5": (figure5.EXPERIMENT, {"queries": 4}),
    "ecs": (ecs.EXPERIMENT, {"queries": 4}),
    "churn": (churn.EXPERIMENT, {"queries": 4}),
    "overload": (overload.EXPERIMENT, {}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exchanged_queries_leave_their_servers_unchanged(name, sent,
                                                         replies):
    experiment, overrides = RUNS[name]
    experiment.run_serial(**overrides)
    assert sent, "the run sent no query through exchange()"
    assert_unchanged(sent)
    # Every client has consumed its reply by now: bytes read this late
    # are still the bytes the server sent.
    assert replies, "the run sent no reply"
    for datagram, wire in replies:
        assert datagram.payload == wire
    if name == "ecs":
        # CoreDNS injected ECS on a copy and forwarded the copy's EDNS.
        assert any(query.edns is not None
                   and query.edns.client_subnet is not None
                   for query, _, _ in sent)


# -- ecs_inject, one hop and a forwarded chain --------------------------------

CLIENT_IP, FIRST_IP, SECOND_IP, AUTH_IP = (
    "10.45.0.2", "10.40.2.10", "10.40.3.10", "10.40.4.4")


def build_chain(first_injects):
    """client -> CoreDNS -> CoreDNS -> authoritative for example.com.

    The first hop relays with its client's EDNS by reference, as every
    relay does; the second always injects ECS.
    """
    sim = Simulator()
    net = Network(sim, RandomStreams(3))
    for name, ip in (("client", CLIENT_IP), ("first", FIRST_IP),
                     ("second", SECOND_IP), ("auth", AUTH_IP)):
        net.add_host(name, ip)
    for left, right in (("client", "first"), ("first", "second"),
                        ("second", "auth")):
        net.add_link(left, right, Constant(1))
    AuthoritativeServer(net, net.host("auth"),
                        [build_zone("example.com", "198.18.1.1")])
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


# -- bytes read on demand are the sent message's -----------------------------

def test_transit_spans_size_the_sent_bytes(monkeypatch):
    """With telemetry on, each hop's span reads ``size``: the encode."""
    sim, net = build_chain(first_injects=True)
    tel = Telemetry().attach(net)
    walked = []
    send = Network.send

    def recording(network, datagram, from_host):
        walked.append((datagram, datagram.view))
        send(network, datagram, from_host)

    monkeypatch.setattr(Network, "send", recording)
    root = tel.tracer.begin("test.lookup", "test", "client")
    query = make_query(Name("video.example.com"), msg_id=11)
    sim.run_until_resolved(sim.spawn(exchange(
        net.host("client"), query, Endpoint(FIRST_IP, 53), 1000.0,
        ctx=root.context)))
    transit = [span.attrs["size"] for span in tel.tracer.finished
               if span.name == "transit"]
    assert len(walked) == len(transit) == 6  # one hop per link, each way
    assert sorted(transit) == sorted(
        len(message.to_wire()) for _, message in walked)
    for datagram, message in walked:
        assert datagram.payload == message.to_wire()


def test_a_duplicate_delivery_parses_the_sent_bytes(monkeypatch):
    """The first delivery claims the view; the second reads the bytes."""
    sim = Simulator()
    net = Network(sim, RandomStreams(3))
    net.add_host("client", CLIENT_IP)
    net.add_host("auth", AUTH_IP)
    net.add_link("client", "auth", Constant(1))
    AuthoritativeServer(net, net.host("auth"),
                        [build_zone("example.com", "198.18.1.1")])
    parsed = []
    parse = Message.__dict__["from_wire"].__func__

    def counting(cls, data):
        parsed.append(data)
        return parse(cls, data)

    monkeypatch.setattr(Message, "from_wire", classmethod(counting))
    answers = []
    sock = UdpSocket(net.host("client"))
    sock.on_datagram = lambda datagram, src, s: answers.append(
        datagram.claim_view())
    query = make_query(Name("video.example.com"), msg_id=21)
    datagram = Datagram(sock.endpoint, Endpoint(AUTH_IP, 53), query,
                        encode=cached_wire)
    net.send(datagram, net.host("client"))
    net.send(datagram, net.host("client"))
    sim.run()
    assert parsed == [query.to_wire()]
    assert [answer.msg_id for answer in answers] == [21, 21]
    assert datagram.payload == query.to_wire()


def test_the_overload_flood_sends_its_queries_bytes(monkeypatch):
    """The one foreign sender: raw bytes, parsed by the MEC DNS."""
    flood = {}
    parsed = []
    parse = Message.__dict__["from_wire"].__func__

    def encoding(query):
        wire = cached_wire(query)
        flood[wire] = query.to_wire()
        return wire

    def counting(cls, data):
        parsed.append(data)
        return parse(cls, data)

    monkeypatch.setattr(overload, "cached_wire", encoding)
    monkeypatch.setattr(Message, "from_wire", classmethod(counting))
    overload.EXPERIMENT.run_serial()
    assert parsed and flood
    for data in parsed:
        assert flood[data] == data
