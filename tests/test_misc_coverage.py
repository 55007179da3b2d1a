"""Coverage sweep: corners the feature-focused suites skirt around.

Grouped by subsystem; each test documents a small contract that would
otherwise only be exercised implicitly.
"""

import pytest

from repro.dnswire import (
    A,
    Name,
    RecordType,
    ResourceRecord,
    Zone,
    make_query,
)
from repro.dnswire.rdata import NS, SOA
from repro.errors import AddressError, RoutingError
from repro.netsim import (
    Constant,
    Datagram,
    Endpoint,
    Network,
    RandomStreams,
    Simulator,
    UdpSocket,
)


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, RandomStreams(55))
    network.add_host("a", "10.0.0.1")
    network.add_host("b", "10.0.0.2")
    network.add_link("a", "b", Constant(2))
    return network


class TestDatagram:
    def test_rewritten_preserves_payload_and_hops(self):
        datagram = Datagram(Endpoint("10.0.0.1", 100),
                            Endpoint("10.0.0.2", 200), b"payload")
        datagram.hops.append("mid")
        clone = datagram.rewritten(src=Endpoint("198.51.100.1", 7))
        assert clone.payload == b"payload"
        assert clone.hops == ["mid"]
        assert clone.dst == datagram.dst
        assert clone.src == Endpoint("198.51.100.1", 7)

    def test_size_and_repr(self):
        datagram = Datagram(Endpoint("10.0.0.1", 1),
                            Endpoint("10.0.0.2", 2), b"abc")
        assert datagram.size == 3
        assert "10.0.0.1:1" in repr(datagram)


class TestNetworkEdges:
    def test_remove_link_unknown_raises(self, net):
        with pytest.raises(RoutingError):
            net.remove_link("a", "ghost-link-peer")

    def test_release_unassigned_address_raises(self, net):
        with pytest.raises(AddressError):
            net.release_address(net.host("a"), "203.0.113.9")

    def test_middlebox_drop_blocks_delivery(self, net):
        from repro.netsim import Middlebox

        class BlackHole(Middlebox):
            def process(self, datagram, host):
                return None

        net.host("b").install_middlebox(BlackHole())
        received = []
        receiver = UdpSocket(net.host("b"), port=9)
        receiver.on_datagram = lambda payload, src, sock: received.append(1)
        UdpSocket(net.host("a")).send_to(b"x", Endpoint("10.0.0.2", 9))
        net.sim.run()
        assert not received

    def test_host_primary_address_requires_assignment(self, net):
        sim2 = Simulator()
        net2 = Network(sim2, RandomStreams(1))
        bare = net2.add_host("bare")
        with pytest.raises(AddressError):
            bare.address


class TestZoneGlue:
    def test_delegation_carries_glue(self):
        zone = Zone(Name("example.com"))
        zone.add(ResourceRecord(Name("example.com"), RecordType.SOA, 300,
                                SOA(Name("ns1.example.com"),
                                    Name("admin.example.com"),
                                    1, 2, 3, 4, 60)))
        zone.add(ResourceRecord(Name("sub.example.com"), RecordType.NS, 300,
                                NS(Name("ns.sub.example.com"))))
        zone.add(ResourceRecord(Name("ns.sub.example.com"), RecordType.A,
                                300, A("192.0.2.53")))
        result = zone.lookup(Name("www.sub.example.com"), RecordType.A)
        assert result.status.value == "delegation"
        assert result.additional
        assert result.additional[0].rdata.address == "192.0.2.53"

    def test_delegation_without_glue_has_empty_additional(self):
        zone = Zone(Name("example.com"))
        zone.add(ResourceRecord(Name("sub.example.com"), RecordType.NS, 300,
                                NS(Name("ns.elsewhere.net"))))
        result = zone.lookup(Name("www.sub.example.com"), RecordType.A)
        assert result.status.value == "delegation"
        assert result.additional == []


class TestServerGarbageHandling:
    def test_garbage_payload_gets_formerr(self, net):
        from repro.resolver import AuthoritativeServer
        zone = Zone(Name("cdn.test"))
        zone.add(ResourceRecord(Name("cdn.test"), RecordType.SOA, 300,
                                SOA(Name("ns.cdn.test"), Name("a.cdn.test"),
                                    1, 2, 3, 4, 60)))
        server = AuthoritativeServer(net, net.host("b"), [zone])
        replies = []
        sock = UdpSocket(net.host("a"))
        sock.on_datagram = lambda payload, src, s: replies.append(payload)
        # Two id octets followed by garbage that cannot parse.
        sock.send_to(b"\x12\x34" + b"\xff" * 5, server.endpoint)
        net.sim.run()
        assert replies
        from repro.dnswire import Message
        response = Message.from_wire(replies[0])
        assert response.rcode.name == "FORMERR"
        assert response.msg_id == 0x1234

    def test_tiny_garbage_silently_dropped(self, net):
        from repro.resolver import AuthoritativeServer
        zone = Zone(Name("cdn.test"))
        zone.add(ResourceRecord(Name("cdn.test"), RecordType.SOA, 300,
                                SOA(Name("ns.cdn.test"), Name("a.cdn.test"),
                                    1, 2, 3, 4, 60)))
        server = AuthoritativeServer(net, net.host("b"), [zone])
        sock = UdpSocket(net.host("a"))
        sock.send_to(b"\x01", server.endpoint)
        net.sim.run()
        assert server.responses_sent == 0

    def test_notimp_for_unsupported_opcode(self, net):
        from repro.dnswire.types import Opcode
        from repro.resolver import AuthoritativeServer
        zone = Zone(Name("cdn.test"))
        zone.add(ResourceRecord(Name("cdn.test"), RecordType.SOA, 300,
                                SOA(Name("ns.cdn.test"), Name("a.cdn.test"),
                                    1, 2, 3, 4, 60)))
        server = AuthoritativeServer(net, net.host("b"), [zone])
        query = make_query(Name("cdn.test"), msg_id=9)
        query.opcode = Opcode.NOTIFY
        replies = []
        sock = UdpSocket(net.host("a"))
        sock.on_datagram = lambda payload, src, s: replies.append(payload)
        sock.send_to(query.to_wire(), server.endpoint)
        net.sim.run()
        from repro.dnswire import Message
        assert Message.from_wire(replies[0]).rcode.name == "NOTIMP"


class TestReprs:
    """Reprs are part of the debugging surface; keep them informative."""

    def test_assorted_reprs(self, net):
        from repro.netsim.latency import LogNormal
        from repro.resolver.cache import DnsCache
        assert "LogNormal" in repr(LogNormal(1.0, 0.5))
        assert "DnsCache" in repr(DnsCache())
        assert "Host(a" in repr(net.host("a"))
        link = net.link_between("a", "b")
        assert "ms" in repr(link)
        sock = UdpSocket(net.host("a"))
        assert "open" in repr(sock)
        sock.close()
        assert "closed" in repr(sock)

    def test_experiment_reprs(self):
        from repro.cdn.providers import AKAMAI_24
        assert AKAMAI_24.label == "Akamai (23.55.124.0/24)"
        from repro.measure.stats import summarize
        assert "mean=" in str(summarize([1.0, 2.0]))
