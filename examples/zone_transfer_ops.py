#!/usr/bin/env python
"""Zone operations: publishing new CDN content via zone transfer.

The CDN's delivery zone changes whenever customers publish content.  In
standard DNS operations the authoritative primary bumps the SOA serial
and secondaries pull the change with AXFR.  This demo runs that
pipeline on the simulated stack: primary update -> SOA poll -> AXFR
(the whole zone in one answer: the simulated fabric has no size limit)
-> the secondary starts answering for the new name.

Run:  python examples/zone_transfer_ops.py
"""

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import AuthoritativeServer, SecondaryZone, StubResolver

ORIGIN = Name("mycdn.ciab.test")


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def build_zone(serial, published):
    zone = Zone(ORIGIN)
    zone.add(rr("mycdn.ciab.test", RecordType.SOA,
                SOA(Name("ns1.mycdn.ciab.test"),
                    Name("admin.mycdn.ciab.test"),
                    serial, 60, 30, 1209600, 300)))
    zone.add(rr("mycdn.ciab.test", RecordType.NS,
                NS(Name("ns1.mycdn.ciab.test"))))
    zone.add(rr("ns1.mycdn.ciab.test", RecordType.A, A("10.0.0.53")))
    for index, name in enumerate(published):
        zone.add(rr(f"{name}.mycdn.ciab.test", RecordType.A,
                    A(f"10.233.1.{10 + index}")))
    return zone


def main() -> None:
    print(__doc__)
    sim = Simulator()
    net = Network(sim, RandomStreams(67))
    net.add_host("primary", "10.0.0.53")     # the CDN's master server
    net.add_host("edge-ns", "10.96.0.53")    # the MEC-side secondary
    net.add_host("ue", "10.45.0.2")
    net.add_link("primary", "edge-ns", Constant(12))
    net.add_link("ue", "edge-ns", Constant(3))

    primary = AuthoritativeServer(
        net, net.host("primary"),
        [build_zone(serial=2024010101,
                    published=[f"video{i}" for i in range(20)])])
    edge_server = AuthoritativeServer(net, net.host("edge-ns"), [])
    secondary = SecondaryZone(net, edge_server, ORIGIN, primary.endpoint)

    print("Initial sync:")
    transferred = sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
    print(f"  transferred={transferred}, serial={secondary.serial}, "
          f"records={sum(1 for _ in edge_server.zones[ORIGIN].records())}")

    stub = StubResolver(net, net.host("ue"), edge_server.endpoint)
    result = sim.run_until_resolved(sim.spawn(
        stub.query(Name("video0.mycdn.ciab.test"))))
    print(f"  UE resolves video0 via the edge secondary -> "
          f"{result.addresses[0]}\n")

    print("Publish a new delivery service on the primary (serial bump):")
    primary.add_zone(build_zone(
        serial=2024010102,
        published=[f"video{i}" for i in range(20)] + ["livestream"]))
    before = secondary.transfers
    transferred = sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
    print(f"  poll found serial {secondary.serial}; "
          f"transferred={transferred} (AXFR #{secondary.transfers})")
    result = sim.run_until_resolved(sim.spawn(
        stub.query(Name("livestream.mycdn.ciab.test"))))
    print(f"  UE resolves the new name -> {result.addresses[0]}")
    assert secondary.transfers == before + 1

    print("\nIdle poll (no change):")
    transferred = sim.run_until_resolved(sim.spawn(secondary.refresh_once()))
    print(f"  transferred={transferred} — serial unchanged, "
          f"no transfer traffic")
    print("\nEach transfer carried the whole zone in one answer; the edge "
          "answers locally either way.")


if __name__ == "__main__":
    main()
