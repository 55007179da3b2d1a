"""Tests for zone transfer payloads, transfer queries, and secondary-zone
maintenance."""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord, cached_wire
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import ZoneError
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.xfr import (SecondaryZone, REFRESH_MS,
                                axfr_response_records, zone_from_axfr)
from repro.resolver.stub import StubResolver

ORIGIN = Name("mycdn.ciab.test")


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def build_zone(serial, extra_hosts=0):
    zone = Zone(ORIGIN)
    zone.add(rr("mycdn.ciab.test", RecordType.SOA,
                SOA(Name("ns1.mycdn.ciab.test"), Name("admin.mycdn.ciab.test"),
                    serial, 60, 30, 1209600, 300)))
    zone.add(rr("mycdn.ciab.test", RecordType.NS,
                NS(Name("ns1.mycdn.ciab.test"))))
    zone.add(rr("ns1.mycdn.ciab.test", RecordType.A, A("10.0.0.53")))
    zone.add(rr("video.mycdn.ciab.test", RecordType.A, A("10.233.1.10")))
    for index in range(extra_hosts):
        zone.add(rr(f"host{index}.mycdn.ciab.test", RecordType.A,
                    A(f"10.233.2.{index + 1}")))
    return zone


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, RandomStreams(91))
    net.add_host("primary", "10.0.0.53")
    net.add_host("secondary", "10.0.1.53")
    net.add_host("client", "10.0.2.2")
    net.add_link("primary", "secondary", Constant(3))
    net.add_link("client", "secondary", Constant(1))
    net.add_link("client", "primary", Constant(4))
    primary = AuthoritativeServer(net, net.host("primary"),
                                  [build_zone(serial=1)])
    secondary_server = AuthoritativeServer(net, net.host("secondary"),
                                           [build_zone(serial=1)])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    return sim, net, primary, secondary_server, secondary


def ask(sim, net, server, name, rtype=RecordType.A, authorities=None):
    stub = StubResolver(net, net.host("client"), server.endpoint)
    return sim.run_until_resolved(sim.spawn(
        stub.query(name, rtype, authorities=authorities)))


class TestAxfrPayload:
    def test_soa_first_and_last(self):
        records = axfr_response_records(build_zone(serial=7))
        assert records[0].rtype == RecordType.SOA
        assert records[-1].rtype == RecordType.SOA
        assert records[0] == records[-1]

    def test_zoneless_soa_rejected(self):
        with pytest.raises(ZoneError):
            axfr_response_records(Zone(Name("empty.test")))

    def test_rebuild_roundtrip(self):
        zone = build_zone(serial=7, extra_hosts=3)
        rebuilt = zone_from_axfr(ORIGIN, axfr_response_records(zone))
        assert sorted(map(str, rebuilt.records())) == \
            sorted(map(str, zone.records()))
        assert rebuilt.soa.rdata.serial == 7

    def test_rebuild_rejects_missing_soa_frame(self):
        zone = build_zone(serial=1)
        records = axfr_response_records(zone)
        with pytest.raises(ZoneError):
            zone_from_axfr(ORIGIN, records[:-1])  # aborted transfer

    def test_rebuild_rejects_mismatched_soas(self):
        first = axfr_response_records(build_zone(serial=1))
        second = axfr_response_records(build_zone(serial=2))
        with pytest.raises(ZoneError):
            zone_from_axfr(ORIGIN, first[:-1] + [second[-1]])


class TestTransferQueries:
    def test_axfr_query_gets_nodata_with_the_soa(self, world):
        # No AXFR service (RFC 5936 wants TCP): the apex holds no record
        # of that type, so the answer is an authoritative NODATA.
        sim, net, primary, _, _ = world
        result = ask(sim, net, primary, ORIGIN, RecordType.AXFR)
        assert result.status == "NOERROR"
        assert result.response.answers == []
        assert result.response.flags.aa
        assert [record.rtype for record in result.response.authorities] \
            == [RecordType.SOA]

    def test_large_full_payload_completes_in_one_exchange(self, world):
        sim, net, primary, _, _ = world
        primary.add_zone(build_zone(serial=2, extra_hosts=40))
        # No journal: an out-of-date IXFR gets the full AXFR-style payload.
        result = ask(sim, net, primary, ORIGIN, RecordType.IXFR,
                     authorities=[build_zone(serial=1).soa])
        # Far past 512 octets, and still one query, one answer, one
        # round trip on the 4 ms link: nothing truncates or retries.
        assert len(cached_wire(result.response)) > 512
        assert not result.response.flags.tc
        assert len(result.response.answers) == 4 + 40 + 2 - 1
        assert (primary.queries_received, primary.ixfr_axfr_fallbacks) \
            == (1, 1)
        assert result.query_time_ms < 2 * 8

    def test_ixfr_for_unhosted_zone_notauth(self, world):
        sim, net, primary, _, _ = world
        result = ask(sim, net, primary, Name("other.test"), RecordType.IXFR)
        assert result.status == "NOTAUTH"

    def test_axfr_for_unhosted_zone_refused(self, world):
        # AXFR is an ordinary query type now: an unhosted zone is
        # refused as any other lookup there is.
        sim, net, primary, _, _ = world
        result = ask(sim, net, primary, Name("other.test"), RecordType.AXFR)
        assert result.status == "REFUSED"
        assert result.response.answers == []


class TestSecondaryZone:
    def test_refuses_a_server_without_the_origin(self, world):
        _, net, primary, _, _ = world
        empty = AuthoritativeServer(net, net.host("client"), [])
        with pytest.raises(ValueError):
            SecondaryZone(net, empty, ORIGIN, primary.endpoint)

    def test_refuses_a_seed_without_an_soa(self, world):
        _, net, primary, _, _ = world
        soaless = Zone(ORIGIN)
        soaless.add(rr("video.mycdn.ciab.test", RecordType.A,
                       A("10.233.1.10")))
        server = AuthoritativeServer(net, net.host("client"), [soaless])
        with pytest.raises(ValueError):
            SecondaryZone(net, server, ORIGIN, primary.endpoint)

    def test_no_transfer_when_serial_unchanged(self, world):
        sim, net, primary, _, secondary = world
        assert secondary.serial == 1
        again = sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
        assert not again
        assert secondary.transfers == 0

    def test_serial_bump_triggers_transfer(self, world):
        sim, net, primary, secondary_server, secondary = world
        updated = build_zone(serial=2)
        updated.add(rr("new.mycdn.ciab.test", RecordType.A, A("10.233.9.9")))
        primary.add_zone(updated)
        transferred = sim.run_until_resolved(
            sim.spawn(secondary.refresh_once()))
        assert transferred
        assert secondary.serial == 2
        result = ask(sim, net, secondary_server,
                     Name("new.mycdn.ciab.test"))
        assert result.addresses == ["10.233.9.9"]

    def test_unreachable_primary_is_not_fatal(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(5))
        net.add_host("secondary", "10.0.1.53")
        server = AuthoritativeServer(net, net.host("secondary"),
                                     [build_zone(serial=1)])
        from repro.netsim.packet import Endpoint
        secondary = SecondaryZone(net, server, ORIGIN,
                                  Endpoint("10.99.9.9", 53))
        transferred = sim.run_until_resolved(
            sim.spawn(secondary.refresh_once()))
        assert not transferred
        assert secondary.serial == 1

    def test_periodic_refresh_loop(self, world):
        sim, net, primary, _, secondary = world
        primary.add_zone(build_zone(serial=2))
        secondary.start()
        sim.run(until=3 * REFRESH_MS + 500)
        assert secondary.refreshes >= 3
        assert secondary.transfers == 1  # serial never moved after sync
        assert secondary.serial == 2
        secondary.stop()
