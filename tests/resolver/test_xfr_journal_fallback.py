"""Regression tests: bounded journals and the IXFR-to-AXFR fallback.

The churn control plane (``repro.control``) runs its primaries with a
deliberately small journal, so the aged-out path is load-bearing: a
secondary that slept through more updates than the journal keeps must
get a full AXFR-style payload (RFC 1995 §4), counted on the server, and
a client applying a delta chain that does not start at its own serial
must reject it rather than corrupt the zone.
"""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import ZoneError
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.xfr import (SecondaryZone, apply_ixfr, diff_zones,
                                ixfr_response_records)

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


V1 = {"video0": "10.233.1.10"}
V2 = {"video0": "10.233.1.10", "video1": "10.233.1.11"}
V3 = {"video0": "10.233.1.10", "video2": "10.233.1.12"}


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, RandomStreams(41))
    net.add_host("primary", "10.0.0.53")
    net.add_host("secondary", "10.0.1.53")
    net.add_link("primary", "secondary", Constant(3))
    primary = AuthoritativeServer(net, net.host("primary"),
                                  [build_zone(1, V1)], journal_depth=1)
    secondary_server = AuthoritativeServer(net, net.host("secondary"),
                                           [build_zone(1, V1)])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    return sim, net, primary, secondary


def sync(sim, secondary):
    return sim.run_until_resolved(sim.spawn(secondary.refresh_once()))


class TestBoundedJournal:
    def test_journal_depth_kwarg_reaches_the_journal(self, world):
        _, _, primary, _ = world
        assert primary.journal.depth == 1

    def test_depth_bounds_the_history(self):
        depth = 4
        sim = Simulator()
        net = Network(sim, RandomStreams(1))
        net.add_host("p", "10.0.0.53")
        server = AuthoritativeServer(net, net.host("p"),
                                     [build_zone(1, V1)], journal_depth=depth)
        for serial in range(2, depth + 4):
            server.add_zone(build_zone(
                serial, {f"v{serial}": f"10.233.2.{serial}"}))
        # Exactly ``depth`` deltas are retained; older history is gone.
        assert server.journal.deltas_since(ORIGIN, 1) is None
        kept = server.journal.deltas_since(ORIGIN, serial - depth)
        assert kept is not None and len(kept) == depth

    def test_no_journal_by_default(self, world):
        # The secondary's server is built without a depth: it keeps no
        # history, so installing a version diffs nothing.
        sim, _, primary, secondary = world
        assert secondary.server.journal is None
        primary.add_zone(build_zone(2, V2))
        assert sync(sim, secondary)
        assert secondary.server.journal is None


class TestAxfrFallback:
    def test_aged_out_secondary_gets_axfr_payload(self, world):
        sim, _, primary, secondary = world   # seeded at serial 1
        primary.add_zone(build_zone(2, V2))
        primary.add_zone(build_zone(3, V3))  # depth-1 journal drops 1->2
        assert sync(sim, secondary)
        assert secondary.serial == 3
        assert primary.ixfr_axfr_fallbacks == 1
        # The content is the full serial-3 zone, not a partial merge.
        zone = secondary.server.zones[ORIGIN]
        assert zone.lookup(Name("video2.mycdn.ciab.test"),
                           RecordType.A).status.value == "success"
        assert zone.lookup(Name("video1.mycdn.ciab.test"),
                           RecordType.A).status.value == "nxdomain"

    def test_covered_delta_does_not_count_as_fallback(self, world):
        sim, _, primary, secondary = world
        primary.add_zone(build_zone(2, V2))  # one update: depth 1 covers it
        assert sync(sim, secondary)
        assert secondary.serial == 2
        assert primary.ixfr_axfr_fallbacks == 0

    def test_chain_not_starting_at_client_serial_is_rejected(self):
        v1, v2, v3 = (build_zone(1, V1), build_zone(2, V2),
                      build_zone(3, V3))
        # A delta chain starting at serial 2 is useless to a serial-1
        # client; applying it anyway would silently corrupt the zone.
        payload = ixfr_response_records(v3, [diff_zones(v2, v3)])
        with pytest.raises(ZoneError):
            apply_ixfr(v1, payload)


class TestInstallHook:
    def test_on_install_fires_with_time_and_serial(self, world):
        sim, _, primary, secondary = world
        installs = []
        secondary.on_install = lambda time, serial: installs.append(
            (time, serial))
        primary.add_zone(build_zone(2, V2))
        assert sync(sim, secondary)
        primary.add_zone(build_zone(3, V3))
        assert sync(sim, secondary)
        assert [serial for _, serial in installs] == [2, 3]
        assert installs[0][0] <= installs[1][0] == sim.now

    def test_no_hook_is_the_default(self, world):
        sim, _, primary, secondary = world
        assert secondary.on_install is None
        primary.add_zone(build_zone(2, V2))
        assert sync(sim, secondary)  # installing without a hook is fine
