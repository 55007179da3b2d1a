"""Tests for incremental zone transfer (IXFR, RFC 1995 shape)."""

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import ZoneError
from repro.netsim import Constant, Middlebox, Network, RandomStreams, Simulator
from repro.resolver import AuthoritativeServer, SecondaryZone, StubResolver
from repro.resolver.xfr import (
    ZoneJournal,
    apply_ixfr,
    diff_zones,
    ixfr_response_records,
)

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
        journal = ZoneJournal()
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


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, RandomStreams(29))
    net.add_host("primary", "10.0.0.53")
    net.add_host("secondary", "10.0.1.53")
    net.add_link("primary", "secondary", Constant(3))
    primary = AuthoritativeServer(net, net.host("primary"),
                                  [build_zone(1, V1)])
    secondary_server = AuthoritativeServer(net, net.host("secondary"), [])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    return sim, net, primary, secondary_server, secondary


class TestIxfrEndToEnd:
    def sync(self, sim, secondary):
        return sim.run_until_resolved(sim.spawn(secondary.refresh_once()))

    def test_first_sync_uses_axfr_then_updates_use_ixfr(self, world):
        sim, net, primary, secondary_server, secondary = world
        assert self.sync(sim, secondary)
        assert secondary.axfr_transfers == 1
        assert secondary.ixfr_transfers == 0
        primary.add_zone(build_zone(2, V2))
        assert self.sync(sim, secondary)
        assert secondary.ixfr_transfers == 1
        assert secondary.serial == 2
        result = secondary_server.zones[ORIGIN].lookup(
            Name("video2.mycdn.ciab.test"), RecordType.A)
        assert result.status.value == "success"

    def test_ixfr_payload_smaller_than_axfr(self, world):
        sim, net, primary, _, secondary = world
        # Give the primary a big zone so the difference is visible
        # (serials must keep increasing for the journal chain).
        big_v1 = build_zone(2, {f"video{i}": f"10.233.1.{i + 10}"
                                for i in range(30)})
        big_v2 = build_zone(3, {**{f"video{i}": f"10.233.1.{i + 10}"
                                   for i in range(30)},
                                "livestream": "10.233.2.1"})
        primary.add_zone(big_v1)
        tally = ArrivalBytes()
        net.host("secondary").install_middlebox(tally)

        self.sync(sim, secondary)  # full AXFR of the 30-record zone
        axfr_bytes = tally.total
        tally.total = 0
        primary.add_zone(big_v2)
        self.sync(sim, secondary)  # incremental: one added record
        ixfr_bytes = tally.total
        assert secondary.ixfr_transfers == 1
        # The diff moves a small fraction of the full-zone bytes.
        assert ixfr_bytes < axfr_bytes / 2

    def test_rotated_history_falls_back_to_full_transfer(self, world):
        sim, net, primary, _, secondary = world
        primary.journal.depth = 1
        self.sync(sim, secondary)
        primary.add_zone(build_zone(2, V2))
        primary.add_zone(build_zone(3, V3))  # rotates serial-1 delta away
        assert self.sync(sim, secondary)
        assert secondary.serial == 3
        # Served as AXFR-style payload inside the IXFR response.
        assert secondary.ixfr_transfers == 1

    def test_up_to_date_ixfr_is_cheap(self, world):
        sim, net, primary, _, secondary = world
        self.sync(sim, secondary)
        stub = StubResolver(net, net.host("secondary"), primary.endpoint)
        current_soa = primary.zones[ORIGIN].soa
        result = sim.run_until_resolved(sim.spawn(
            stub.query(ORIGIN, RecordType.IXFR,
                       authorities=[current_soa])))
        assert len(result.response.answers) == 1
        assert result.response.answers[0].rtype == RecordType.SOA

    def test_ixfr_counter_on_primary(self, world):
        sim, net, primary, _, secondary = world
        self.sync(sim, secondary)
        primary.add_zone(build_zone(2, V2))
        self.sync(sim, secondary)
        assert primary.ixfr_served == 1
        assert primary.axfr_served == 1
