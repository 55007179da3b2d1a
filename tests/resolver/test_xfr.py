"""Tests for zone transfer (AXFR) and secondary-zone maintenance."""

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import ZoneError
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import (AuthoritativeServer, RetryPolicy, SecondaryZone,
                            StubResolver)
from repro.resolver.xfr import axfr_response_records, zone_from_axfr

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
    secondary_server = AuthoritativeServer(net, net.host("secondary"), [])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    return sim, net, primary, secondary_server, secondary


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


class TestAxfrOverTheWire:
    def test_axfr_query_returns_full_zone(self, world):
        sim, net, primary, _, _ = world
        stub = StubResolver(net, net.host("client"), primary.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(ORIGIN, RecordType.AXFR)))
        assert result.status == "NOERROR"
        assert result.response.answers[0].rtype == RecordType.SOA
        assert result.response.answers[-1].rtype == RecordType.SOA
        assert primary.axfr_served == 1

    def test_large_zone_rides_tcp(self, world):
        sim, net, primary, _, _ = world
        primary.add_zone(build_zone(serial=2, extra_hosts=40))
        stub = StubResolver(net, net.host("client"), primary.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(ORIGIN, RecordType.AXFR)))
        # > 512 bytes: truncated on UDP, completed over the stream.
        assert stub.tcp_fallbacks == 1
        assert len(result.response.answers) == 4 + 40 + 2 - 1

    def test_axfr_for_unhosted_zone_notauth(self, world):
        sim, net, primary, _, _ = world
        stub = StubResolver(net, net.host("client"), primary.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name("other.test"), RecordType.AXFR)))
        assert result.status == "NOTAUTH"


class TestSecondaryZone:
    def test_initial_transfer(self, world):
        sim, net, primary, secondary_server, secondary = world
        assert secondary.serial is None
        transferred = sim.run_until_resolved(
            sim.spawn(secondary.refresh_once()))
        assert transferred
        assert secondary.serial == 1
        # The secondary now answers authoritatively.
        stub = StubResolver(net, net.host("client"),
                            secondary_server.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name("video.mycdn.ciab.test"))))
        assert result.addresses == ["10.233.1.10"]

    def test_no_transfer_when_serial_unchanged(self, world):
        sim, net, primary, _, secondary = world
        sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
        again = sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
        assert not again
        assert secondary.transfers == 1

    def test_serial_bump_triggers_transfer(self, world):
        sim, net, primary, secondary_server, secondary = world
        sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
        updated = build_zone(serial=2)
        updated.add(rr("new.mycdn.ciab.test", RecordType.A, A("10.233.9.9")))
        primary.add_zone(updated)
        transferred = sim.run_until_resolved(
            sim.spawn(secondary.refresh_once()))
        assert transferred
        assert secondary.serial == 2
        stub = StubResolver(net, net.host("client"),
                            secondary_server.endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name("new.mycdn.ciab.test"))))
        assert result.addresses == ["10.233.9.9"]

    def test_unreachable_primary_is_not_fatal(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(5))
        net.add_host("secondary", "10.0.1.53")
        server = AuthoritativeServer(net, net.host("secondary"), [])
        from repro.netsim.packet import Endpoint
        secondary = SecondaryZone(net, server, ORIGIN,
                                  Endpoint("10.99.9.9", 53))
        secondary._stub.policy = RetryPolicy(retries=0, timeout_ms=50)
        transferred = sim.run_until_resolved(
            sim.spawn(secondary.refresh_once()))
        assert not transferred

    def test_periodic_refresh_loop(self, world):
        sim, net, primary, _, secondary = world
        secondary._refresh_override = 1000.0
        secondary.start()
        sim.run(until=3500)
        assert secondary.refreshes >= 3
        assert secondary.transfers == 1  # serial never moved after sync
        secondary.stop()


class TestAnswerRotation:
    def test_rotation_cycles_rrset_order(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(7))
        net.add_host("auth", "10.0.0.53")
        net.add_host("client", "10.0.0.2")
        net.add_link("client", "auth", Constant(1))
        zone = build_zone(serial=1)
        zone.add(rr("video.mycdn.ciab.test", RecordType.A, A("10.233.1.11")))
        zone.add(rr("video.mycdn.ciab.test", RecordType.A, A("10.233.1.12")))
        server = AuthoritativeServer(net, net.host("auth"), [zone],
                                     rotate_answers=True)
        stub = StubResolver(net, net.host("client"), server.endpoint)
        firsts = []
        for _ in range(6):
            result = sim.run_until_resolved(sim.spawn(
                stub.query(Name("video.mycdn.ciab.test"))))
            assert len(result.addresses) == 3
            firsts.append(result.addresses[0])
        assert len(set(firsts)) == 3  # every record led at least once
