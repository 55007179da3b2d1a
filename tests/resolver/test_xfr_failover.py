"""Secondary-zone behaviour when the primary crashes mid-transfer."""

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.faults import FaultPlan, inject
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import (AuthoritativeServer, RetryPolicy, SecondaryZone,
                            StubResolver)

ORIGIN = Name("mycdn.ciab.test")


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def build_zone(serial, extra_hosts=0):
    zone = Zone(ORIGIN)
    zone.add(rr("mycdn.ciab.test", RecordType.SOA,
                SOA(Name("ns1.mycdn.ciab.test"),
                    Name("admin.mycdn.ciab.test"),
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
    net = Network(sim, RandomStreams(93))
    net.add_host("primary", "10.0.0.53")
    net.add_host("secondary", "10.0.1.53")
    net.add_host("client", "10.0.2.2")
    net.add_link("primary", "secondary", Constant(3))
    net.add_link("client", "secondary", Constant(1))
    primary = AuthoritativeServer(net, net.host("primary"),
                                  [build_zone(serial=1)])
    secondary_server = AuthoritativeServer(net, net.host("secondary"), [])
    secondary = SecondaryZone(net, secondary_server, ORIGIN,
                              primary.endpoint)
    secondary._stub.policy = RetryPolicy(retries=0, timeout_ms=200)
    return sim, net, primary, secondary_server, secondary


def sync(sim, secondary):
    return sim.run_until_resolved(sim.spawn(secondary.refresh_once()))


def ask(sim, net, server, name="video.mycdn.ciab.test"):
    stub = StubResolver(net, net.host("client"), server.endpoint)
    return sim.run_until_resolved(sim.spawn(stub.query(Name(name))))


class TestPrimaryCrashFailover:
    def test_crash_mid_transfer_keeps_old_zone_serving(self, world):
        sim, net, primary, secondary_server, secondary = world
        assert sync(sim, secondary)

        # A big serial bump forces a long AXFR over the stream; the
        # primary dies while the transfer is in flight.
        primary.add_zone(build_zone(serial=2, extra_hosts=40))
        crash_at = sim.now + 9.0  # after the SOA probe, mid-stream
        inject(net, FaultPlan().crash_host("primary", crash_at,
                                           duration_ms=2000))
        assert not sync(sim, secondary)

        # The aborted transfer must not have corrupted the installed
        # zone: the secondary still answers from serial 1.
        assert secondary.serial == 1
        result = ask(sim, net, secondary_server)
        assert result.status == "NOERROR"
        assert result.addresses == ["10.233.1.10"]
        assert ask(sim, net, secondary_server,
                   "host0.mycdn.ciab.test").status == "NXDOMAIN"

    def test_transfer_resumes_after_primary_restart(self, world):
        sim, net, primary, secondary_server, secondary = world
        assert sync(sim, secondary)
        primary.add_zone(build_zone(serial=2, extra_hosts=40))
        crash_at = sim.now + 9.0
        inject(net, FaultPlan().crash_host("primary", crash_at,
                                           duration_ms=500))
        assert not sync(sim, secondary)
        sim.run(until=crash_at + 600)  # past the restart
        assert sync(sim, secondary)
        assert secondary.serial == 2
        assert ask(sim, net, secondary_server,
                   "host0.mycdn.ciab.test").addresses == ["10.233.2.1"]

    def test_crash_before_soa_probe_is_not_fatal(self, world):
        sim, net, primary, secondary_server, secondary = world
        assert sync(sim, secondary)
        net.host("primary").down = True
        assert not sync(sim, secondary)
        assert secondary.serial == 1
        assert ask(sim, net, secondary_server).addresses == ["10.233.1.10"]
