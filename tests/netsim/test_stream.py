"""Tests for the stream transport and DNS truncation fallback."""

import pytest

from repro.dnswire import A, Name, RecordType, ResourceRecord, TXT, Zone
from repro.dnswire.rdata import NS, SOA
from repro.errors import SocketError
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.stream import StreamServer, open_channel
from repro.resolver import AuthoritativeServer, StubResolver


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, RandomStreams(77))
    network.add_host("client", "10.0.0.2")
    network.add_host("server", "10.0.0.80")
    network.add_link("client", "server", Constant(5))
    return network


def answering(reply):
    """A stream handler that answers at once with ``reply(body)``."""
    def handler(body, peer):
        return reply(body)
        yield  # every stream handler is a simulator process

    return handler


class TestStreamChannel:
    def test_connect_then_exchange(self, net):
        StreamServer(net, net.host("server"), 8080,
                     handler=answering(lambda body: b"echo:" + body))

        def client():
            channel = yield from open_channel(
                net, net.host("client"), Endpoint("10.0.0.80", 8080))
            reply = yield from channel.exchange(b"hello")
            return reply, channel.round_trips

        reply, round_trips = net.sim.run_until_resolved(
            net.sim.spawn(client()))
        assert reply == b"echo:hello"
        assert round_trips == 2  # handshake + exchange
        assert net.sim.now == pytest.approx(20.0)  # 2 RTT x 10ms

    def test_generator_handler(self, net):
        def slow_handler(body, peer):
            yield 7
            return b"done"

        StreamServer(net, net.host("server"), 8080, handler=slow_handler)

        def client():
            channel = yield from open_channel(
                net, net.host("client"), Endpoint("10.0.0.80", 8080))
            return (yield from channel.exchange(b"x"))

        assert net.sim.run_until_resolved(net.sim.spawn(client())) == b"done"
        assert net.sim.now == pytest.approx(27.0)

    def test_exchange_before_connect_rejected(self, net):
        from repro.netsim.stream import StreamChannel
        channel = StreamChannel(net, net.host("client"),
                                Endpoint("10.0.0.80", 8080))

        def run():
            yield from channel.exchange(b"x")

        from repro.netsim.engine import ProcessFailed
        with pytest.raises(ProcessFailed) as excinfo:
            net.sim.run_until_resolved(net.sim.spawn(run()))
        assert isinstance(excinfo.value.__cause__, SocketError)

    def test_retransmission_survives_loss(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(3))
        net.add_host("client", "10.0.0.2")
        net.add_host("server", "10.0.0.80")
        net.add_link("client", "server", Constant(5), loss=0.3)
        served = []
        StreamServer(net, net.host("server"), 8080,
                     handler=answering(
                         lambda body: served.append(body) or b"ok"))

        def client():
            channel = yield from open_channel(
                net, net.host("client"), Endpoint("10.0.0.80", 8080))
            return (yield from channel.exchange(b"payload"))

        assert sim.run_until_resolved(sim.spawn(client())) == b"ok"

    def test_server_exchange_counter(self, net):
        server = StreamServer(net, net.host("server"), 8080,
                              handler=answering(lambda body: b"r"))

        def client():
            channel = yield from open_channel(
                net, net.host("client"), Endpoint("10.0.0.80", 8080))
            yield from channel.exchange(b"1")
            yield from channel.exchange(b"2")

        net.sim.run_until_resolved(net.sim.spawn(client()))
        assert server.exchanges_served == 2


def big_zone():
    """A zone whose TXT answer cannot fit a 512-byte UDP response."""
    zone = Zone(Name("big.test"))
    zone.add(ResourceRecord(Name("big.test"), RecordType.SOA, 300,
                            SOA(Name("ns.big.test"), Name("a.big.test"),
                                1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("big.test"), RecordType.NS, 300,
                            NS(Name("ns.big.test"))))
    zone.add(ResourceRecord(Name("wide.big.test"), RecordType.TXT, 300,
                            TXT.from_string("x" * 900)))
    zone.add(ResourceRecord(Name("small.big.test"), RecordType.A, 300,
                            A("192.0.2.1")))
    return zone


class TestTruncationFallback:
    def test_small_answer_stays_on_udp(self, net):
        server = AuthoritativeServer(net, net.host("server"), [big_zone()])
        stub = StubResolver(net, net.host("client"), server.endpoint)
        result = net.sim.run_until_resolved(net.sim.spawn(
            stub.query(Name("small.big.test"))))
        assert result.addresses == ["192.0.2.1"]
        assert stub.tcp_fallbacks == 0
        assert server.truncated_sent == 0

    def test_oversize_answer_truncates_and_retries_over_tcp(self, net):
        server = AuthoritativeServer(net, net.host("server"), [big_zone()])
        stub = StubResolver(net, net.host("client"), server.endpoint)
        result = net.sim.run_until_resolved(net.sim.spawn(
            stub.query(Name("wide.big.test"), RecordType.TXT)))
        assert result.status == "NOERROR"
        assert result.response.answers[0].rdata.strings[0].startswith(b"xxx")
        assert server.truncated_sent == 1
        assert server.tcp_queries_received == 1
        assert stub.tcp_fallbacks == 1
        assert not result.response.flags.tc  # the final answer is complete

    def test_edns_payload_avoids_truncation(self, net):
        from repro.dnswire import Edns
        server = AuthoritativeServer(net, net.host("server"), [big_zone()])
        stub = StubResolver(net, net.host("client"), server.endpoint)
        result = net.sim.run_until_resolved(net.sim.spawn(
            stub.query(Name("wide.big.test"), RecordType.TXT,
                       edns=Edns(udp_payload=4096))))
        assert result.status == "NOERROR"
        assert stub.tcp_fallbacks == 0
        assert server.truncated_sent == 0

    def test_tcp_fallback_costs_extra_round_trips(self, net):
        server = AuthoritativeServer(net, net.host("server"), [big_zone()])
        stub = StubResolver(net, net.host("client"), server.endpoint)
        small = net.sim.run_until_resolved(net.sim.spawn(
            stub.query(Name("small.big.test"))))
        wide = net.sim.run_until_resolved(net.sim.spawn(
            stub.query(Name("wide.big.test"), RecordType.TXT)))
        # UDP attempt + handshake + TCP exchange = ~3x the UDP-only time.
        assert wide.query_time_ms > 2.5 * small.query_time_ms
