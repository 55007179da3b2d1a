"""Tests for incremental zone transfer (IXFR, RFC 1995 shape)."""

import pytest

from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import ZoneError
from repro.netsim import Constant, Middlebox, Network, RandomStreams, Simulator
from repro.netsim.packet import Datagram
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.xfr import (SecondaryZone, ZoneJournal, apply_ixfr,
                                diff_zones, ixfr_response_records)
from repro.resolver.stub import StubResolver

ORIGIN = Name("mycdn.ciab.test")


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def build_zone(serial, hosts):
    zone = Zone(ORIGIN)
    zone.add(rr("mycdn.ciab.test", RecordType.SOA,
                SOA(Name("ns1.mycdn.ciab.test"),
                    Name("admin.mycdn.ciab.test"),
                    serial, 60, 30, 1209600, 300)))
    zone.add(rr("mycdn.ciab.test", RecordType.NS,
                NS(Name("ns1.mycdn.ciab.test"))))
    zone.add(rr("ns1.mycdn.ciab.test", RecordType.A, A("10.0.0.53")))
    for name, address in hosts.items():
        zone.add(rr(f"{name}.mycdn.ciab.test", RecordType.A, A(address)))
    return zone


V1 = {"video0": "10.233.1.10", "video1": "10.233.1.11"}
V2 = {"video0": "10.233.1.10", "video2": "10.233.1.12"}  # -video1 +video2
V3 = {"video0": "10.233.1.10", "video2": "10.233.1.12",
      "livestream": "10.233.1.13"}


class TestDiffAndJournal:
    def test_diff_zones(self):
        delta = diff_zones(build_zone(1, V1), build_zone(2, V2))
        assert delta.old_serial == 1 and delta.new_serial == 2
        assert [str(record.name) for record in delta.deleted] == \
            ["video1.mycdn.ciab.test."]
        assert [str(record.name) for record in delta.added] == \
            ["video2.mycdn.ciab.test."]

    def test_diff_requires_soas(self):
        with pytest.raises(ZoneError):
            diff_zones(Zone(ORIGIN), build_zone(1, V1))

    def test_journal_chain(self):
        journal = ZoneJournal(depth=4)
        journal.record(ORIGIN, build_zone(1, V1), build_zone(2, V2))
        journal.record(ORIGIN, build_zone(2, V2), build_zone(3, V3))
        chain = journal.deltas_since(ORIGIN, 1)
        assert [delta.new_serial for delta in chain] == [2, 3]
        assert journal.deltas_since(ORIGIN, 2)[0].new_serial == 3
        assert journal.deltas_since(ORIGIN, 99) is None

    def test_journal_depth_rotation(self):
        journal = ZoneJournal(depth=1)
        journal.record(ORIGIN, build_zone(1, V1), build_zone(2, V2))
        journal.record(ORIGIN, build_zone(2, V2), build_zone(3, V3))
        assert journal.deltas_since(ORIGIN, 1) is None  # rotated away
        assert journal.deltas_since(ORIGIN, 2) is not None

    def test_journal_depth_validation(self):
        with pytest.raises(ValueError):
            ZoneJournal(depth=0)


class TestApplyIxfr:
    def test_apply_single_delta(self):
        old = build_zone(1, V1)
        new = build_zone(2, V2)
        payload = ixfr_response_records(new, [diff_zones(old, new)])
        updated = apply_ixfr(old, payload)
        assert updated.soa.rdata.serial == 2
        assert updated.lookup(Name("video2.mycdn.ciab.test"),
                              RecordType.A).status.value == "success"
        assert updated.lookup(Name("video1.mycdn.ciab.test"),
                              RecordType.A).status.value == "nxdomain"

    def test_apply_chained_deltas(self):
        v1, v2, v3 = build_zone(1, V1), build_zone(2, V2), build_zone(3, V3)
        payload = ixfr_response_records(
            v3, [diff_zones(v1, v2), diff_zones(v2, v3)])
        updated = apply_ixfr(v1, payload)
        assert updated.soa.rdata.serial == 3
        assert updated.lookup(Name("livestream.mycdn.ciab.test"),
                              RecordType.A).status.value == "success"

    def test_apply_up_to_date(self):
        zone = build_zone(2, V2)
        assert apply_ixfr(zone, [zone.soa]) is zone

    def test_apply_axfr_style_fallback(self):
        from repro.resolver.xfr import axfr_response_records
        old = build_zone(1, V1)
        new = build_zone(3, V3)
        updated = apply_ixfr(old, axfr_response_records(new))
        assert updated.soa.rdata.serial == 3
        assert updated.lookup(Name("video1.mycdn.ciab.test"),
                              RecordType.A).status.value == "nxdomain"

    def test_apply_rejects_garbage(self):
        with pytest.raises(ZoneError):
            apply_ixfr(build_zone(1, V1), [])

    def test_original_zone_untouched(self):
        old = build_zone(1, V1)
        new = build_zone(2, V2)
        apply_ixfr(old, ixfr_response_records(new, [diff_zones(old, new)]))
        assert old.soa.rdata.serial == 1
        assert old.lookup(Name("video1.mycdn.ciab.test"),
                          RecordType.A).status.value == "success"


class ArrivalBytes(Middlebox):
    """Sums the size of every datagram arriving at its host, unchanged."""

    total = 0

    def process(self, datagram, host):
        self.total += datagram.size
        return datagram


class TruncatedIxfr(Middlebox):
    """Cuts the closing SOA off every IXFR answer arriving at its host."""

    armed = True

    def process(self, datagram, host):
        message = Message.from_wire(datagram.payload)
        if not self.armed or not message.flags.qr \
                or message.question.rtype != RecordType.IXFR:
            return datagram
        message.answers = message.answers[:-1]
        return Datagram(datagram.src, datagram.dst, message.to_wire())


def make_world(journal_depth=16):
    sim = Simulator()
    net = Network(sim, RandomStreams(29))
    net.add_host("primary", "10.0.0.53")
    net.add_host("secondary", "10.0.1.53")
    net.add_link("primary", "secondary", Constant(3))
    primary = AuthoritativeServer(net, net.host("primary"),
                                  [build_zone(1, V1)],
                                  journal_depth=journal_depth)
    secondary_server = AuthoritativeServer(net, net.host("secondary"),
                                           [build_zone(1, V1)])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    return sim, net, primary, secondary_server, secondary


@pytest.fixture
def world():
    return make_world()


def big_zone(serial, extra=None):
    hosts = {f"video{i}": f"10.233.1.{i + 10}" for i in range(30)}
    return build_zone(serial, {**hosts, **(extra or {})})


class TestIxfrEndToEnd:
    def sync(self, sim, secondary):
        return sim.run_until_resolved(sim.spawn(secondary.refresh_once()))

    def test_updates_arrive_as_diffs(self, world):
        sim, net, primary, secondary_server, secondary = world
        primary.add_zone(build_zone(2, V2))
        assert self.sync(sim, secondary)
        assert secondary.transfers == 1
        assert secondary.serial == 2
        assert primary.ixfr_axfr_fallbacks == 0
        result = secondary_server.zones[ORIGIN].lookup(
            Name("video2.mycdn.ciab.test"), RecordType.A)
        assert result.status.value == "success"

    def test_unusable_diff_installs_nothing_and_the_next_cycle_asks_again(
            self, world):
        sim, net, primary, secondary_server, secondary = world
        primary.add_zone(build_zone(2, V2))
        garble = TruncatedIxfr()
        net.host("secondary").install_middlebox(garble)
        seeded = secondary_server.zones[ORIGIN]
        # The diff arrives without its closing SOA: apply_ixfr cannot
        # converge, and the secondary keeps serving its old copy.
        assert not self.sync(sim, secondary)
        assert secondary_server.zones[ORIGIN] is seeded
        assert (secondary.serial, secondary.transfers) == (1, 0)
        garble.armed = False
        assert self.sync(sim, secondary)
        assert (secondary.serial, secondary.transfers) == (2, 1)
        assert primary.ixfr_served == 2

    def test_ixfr_payload_smaller_than_full_payload(self):
        sim, net, primary, _, secondary = make_world(journal_depth=1)
        # Two versions on a depth-1 journal: the secondary's serial ages
        # out, so its first pull is the full 30-record zone.
        primary.add_zone(big_zone(2))
        primary.add_zone(big_zone(3))
        tally = ArrivalBytes()
        net.host("secondary").install_middlebox(tally)

        assert self.sync(sim, secondary)
        assert primary.ixfr_axfr_fallbacks == 1
        full_bytes = tally.total
        tally.total = 0
        primary.add_zone(big_zone(4, {"livestream": "10.233.2.1"}))
        assert self.sync(sim, secondary)  # incremental: one added record
        ixfr_bytes = tally.total
        assert primary.ixfr_axfr_fallbacks == 1
        assert secondary.serial == 4
        # The diff moves a small fraction of the full-zone bytes.
        assert ixfr_bytes < full_bytes / 2

    def test_rotated_history_falls_back_to_full_transfer(self, world):
        sim, net, primary, _, secondary = world
        primary.journal.depth = 1
        primary.add_zone(build_zone(2, V2))
        primary.add_zone(build_zone(3, V3))  # rotates serial-1 delta away
        assert self.sync(sim, secondary)
        assert secondary.serial == 3
        # Served as AXFR-style payload inside the IXFR response.
        assert (secondary.transfers, primary.ixfr_axfr_fallbacks) == (1, 1)

    def test_up_to_date_ixfr_is_cheap(self, world):
        sim, net, primary, _, secondary = world
        stub = StubResolver(net, net.host("secondary"), primary.endpoint)
        current_soa = primary.zones[ORIGIN].soa
        result = sim.run_until_resolved(sim.spawn(
            stub.query(ORIGIN, RecordType.IXFR,
                       authorities=[current_soa])))
        assert len(result.response.answers) == 1
        assert result.response.answers[0].rtype == RecordType.SOA

    def test_ixfr_counter_on_primary(self, world):
        sim, net, primary, _, secondary = world
        assert not self.sync(sim, secondary)  # current: the SOA poll ends it
        assert primary.ixfr_served == 0
        primary.add_zone(build_zone(2, V2))
        self.sync(sim, secondary)
        assert primary.ixfr_served == 1
