"""Tests for reverse-DNS (in-addr.arpa) support."""

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import NS, PTR, SOA
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.stub import StubResolver


POINTER = Name("2.64.233.10.in-addr.arpa")


class TestReversePointer:
    def test_roundtrip_through_ptr_zone(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(5))
        net.add_host("dns", "10.0.0.53")
        net.add_host("client", "10.0.0.2")
        net.add_link("client", "dns", Constant(1))
        zone = Zone(Name("64.233.10.in-addr.arpa"))
        zone.add(ResourceRecord(Name("64.233.10.in-addr.arpa"),
                                RecordType.SOA, 300,
                                SOA(Name("ns.mec.test"), Name("a.mec.test"),
                                    1, 2, 3, 4, 60)))
        zone.add(ResourceRecord(Name("64.233.10.in-addr.arpa"),
                                RecordType.NS, 300, NS(Name("ns.mec.test"))))
        zone.add(ResourceRecord(POINTER, RecordType.PTR, 300,
                                PTR(Name("cache-1.edge1.mec.test"))))
        server = AuthoritativeServer(net, net.host("dns"), [zone])
        stub = StubResolver(net, net.host("client"), server.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(POINTER, RecordType.PTR)))
        assert result.status == "NOERROR"
        assert result.response.answers[0].rdata.target == \
            Name("cache-1.edge1.mec.test")
