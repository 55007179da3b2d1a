#!/usr/bin/env python
"""Overload mitigation: the MEC orchestrator sheds DNS load gracefully.

The paper's §3: the MEC DNS offers *best-effort* service — the MEC
orchestrator "can simply switch (or only unicast) to the provider's
L-DNS during high ingress (above a threshold)".  This example drives a
query flood at the MEC DNS, shows the ingress monitor crossing its
threshold, the managed UEs being re-targeted at the provider's L-DNS
(degraded latency, preserved availability), and the restoration once the
flood subsides.

Run:  python examples/dos_fallback.py
"""

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec.ingress import DosMitigation, IngressMonitor
from repro.mobile.ue import UserEquipment
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer

CDN_DOMAIN = "mycdn.ciab.test"
CONTENT = Name(f"video.demo1.{CDN_DOMAIN}")


def build_zone(address):
    zone = Zone(Name(CDN_DOMAIN))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.SOA, 300,
                            SOA(Name(f"ns.{CDN_DOMAIN}"),
                                Name(f"admin.{CDN_DOMAIN}"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.NS, 300,
                            NS(Name(f"ns.{CDN_DOMAIN}"))))
    zone.add(ResourceRecord(CONTENT, RecordType.A, 0, A(address)))
    return zone


def main() -> None:
    print(__doc__)
    sim = Simulator()
    network = Network(sim, RandomStreams(31))
    network.add_host("ue", "10.45.0.2")
    network.add_host("attacker", "10.45.0.66")
    network.add_host("mec-dns", "10.96.0.10")
    network.add_host("provider-ldns", "203.0.113.10")
    network.add_link("ue", "mec-dns", Constant(3))
    network.add_link("attacker", "mec-dns", Constant(3))
    network.add_link("ue", "provider-ldns", Constant(45))

    mec_dns = AuthoritativeServer(network, network.host("mec-dns"),
                                  [build_zone("10.233.1.10")])
    AuthoritativeServer(network, network.host("provider-ldns"),
                        [build_zone("10.233.1.10")])

    monitor = IngressMonitor(window_ms=1000, threshold_qps=200)
    mitigation = DosMitigation(
        monitor,
        mec_dns=Endpoint("10.96.0.10", 53),
        provider_ldns=Endpoint("203.0.113.10", 53))
    ue = UserEquipment(network, "managed-ue", "10.45.0.3",
                       default_dns=Endpoint("10.96.0.10", 53))
    network.add_link("managed-ue", "mec-dns", Constant(3))
    network.add_link("managed-ue", "provider-ldns", Constant(45))
    mitigation.manage(ue)

    # Hook the monitor into the MEC DNS ingress path (the orchestrator
    # "has access to monitoring statistics of the ingress network load").
    original = mec_dns.sock.on_datagram

    def metered(datagram, client, sock):
        monitor.record(sim.now)
        mitigation.evaluate(sim.now)
        original(datagram, client, sock)

    mec_dns.sock.on_datagram = metered

    def resolve():
        stub = ue.stub()
        result = sim.run_until_resolved(sim.spawn(stub.query(CONTENT)))
        return result

    baseline = resolve()
    print(f"Baseline: UE resolves via {baseline.server} in "
          f"{baseline.query_time_ms:.1f} ms "
          f"(rate {monitor.rate_qps(sim.now):.0f} qps)\n")

    # The flood: 400 queries in ~0.8 s from the attacker host.
    from repro.netsim import UdpSocket
    from repro.dnswire.message import make_query
    attacker_sock = UdpSocket(network.host("attacker"))

    def flood():
        for index in range(400):
            query = make_query(CONTENT, msg_id=index + 1)
            attacker_sock.send_to(query.to_wire(), Endpoint("10.96.0.10", 53))
            yield 2  # 500 qps
    sim.run_until_resolved(sim.spawn(flood()))

    print(f"After flood: ingress {monitor.rate_qps(sim.now):.0f} qps "
          f"(threshold {monitor.threshold_qps:.0f}); "
          f"mitigating={mitigation.mitigating}")
    degraded = resolve()
    print(f"During mitigation: UE resolves via {degraded.server} in "
          f"{degraded.query_time_ms:.1f} ms — slower, but still available\n")

    # Quiet period: the monitor window drains and UEs are restored.
    sim.run(until=sim.now + 5000)
    mitigation.evaluate(sim.now)
    restored = resolve()
    print(f"After quiet period: mitigating={mitigation.mitigating}; "
          f"UE resolves via {restored.server} in "
          f"{restored.query_time_ms:.1f} ms")
    assert restored.server == Endpoint("10.96.0.10", 53)


if __name__ == "__main__":
    main()
