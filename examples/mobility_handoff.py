#!/usr/bin/env python
"""Mobility: a UE hands off between two MEC edge sites.

The paper's §3 (P1): "when an end user connects to a particular base
station, its target DNS is switched to that of the MEC DNS.  This can be
performed ... as part of the cellular hand-off process."

This example builds two edge sites, each with its own MEC-CDN (cluster,
caches, C-DNS, CoreDNS), drives a UE from cell A to cell B, and shows
that after the handoff the UE resolves the same CDN name to a cache at
the *new* edge — location-aware answers with no client configuration.

Run:  python examples/mobility_handoff.py
"""

from repro.cdn.content import ContentCatalog
from repro.core.meccdn import MecCdnSite
from repro.dnswire.name import Name
from repro.mobile.core import EvolvedPacketCore
from repro.mobile.handoff import HandoffController
from repro.mobile.ue import UserEquipment
from repro.core.deployments import TESTBED_LTE
from repro.netsim import Constant, Network, RandomStreams, Simulator

CDN_DOMAIN = Name("mycdn.ciab.test")
CONTENT = Name("video.demo1.mycdn.ciab.test")


def build_edge_site(network, epc, site_name, node_subnet, service_cidr,
                    pod_cidr):
    """One MEC cluster hanging off the shared P-GW."""
    nodes = []
    for index in range(2):
        node = network.add_host(f"{site_name}-node-{index}",
                                f"{node_subnet}.{10 + index}")
        network.add_link(node.name, epc.pgw.name, Constant(0.25))
        nodes.append(node)
    network.add_link(nodes[0].name, nodes[1].name, Constant(0.2))
    catalog = ContentCatalog()
    catalog.add_object(CONTENT, "/seg1.ts", 200_000)
    return MecCdnSite(
        network, site_name, nodes, catalog,
        cdn_domain=CDN_DOMAIN,
        client_networks=["10.45.0.0/16", "10.40.0.0/16",
                         node_subnet + ".0/24", pod_cidr],
        # Disjoint service/pod CIDR slices per site, so their cluster and
        # cache addresses never collide (and are distinguishable below).
        service_cidr=service_cidr,
        pod_cidr=pod_cidr,
        cache_count=2)


def main() -> None:
    print(__doc__)
    sim = Simulator()
    network = Network(sim, RandomStreams(23))
    epc = EvolvedPacketCore(network, "lte", TESTBED_LTE,
                            sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
                            public_ips=["198.51.100.1"])

    site_a = build_edge_site(network, epc, "edge-a", "10.40.2",
                             "10.96.0.0/17", "10.233.64.0/19")
    site_b = build_edge_site(network, epc, "edge-b", "10.40.3",
                             "10.96.128.0/17", "10.233.96.0/19")
    # Each cell advertises its own edge's MEC DNS.
    cell_a = epc.add_base_station("enb-a", "10.40.1.1",
                                  mec_dns=site_a.ldns_endpoint)
    cell_b = epc.add_base_station("enb-b", "10.40.1.2",
                                  mec_dns=site_b.ldns_endpoint)

    ue = UserEquipment(network, "ue-1", "10.45.0.2")
    cell_a.attach(ue)
    print(f"UE attached at {cell_a.name}; DNS target pushed: {ue.dns}")

    def resolve():
        stub = ue.stub()
        return sim.run_until_resolved(sim.spawn(stub.query(CONTENT)))

    before = resolve()
    caches_a = [c.endpoint.ip for c in site_a.caches]
    caches_b = [c.endpoint.ip for c in site_b.caches]
    print(f"  {CONTENT} -> {before.addresses[0]} "
          f"(edge-a cache: {before.addresses[0] in caches_a}) "
          f"in {before.query_time_ms:.1f} ms")

    controller = HandoffController(network)
    record = controller.handoff(ue, cell_b)
    print(f"\nHandoff {record.source} -> {record.target} at "
          f"t={record.time:.1f} ms; DNS switched: {record.dns_switched}")
    print(f"UE DNS target now: {ue.dns}")

    after = resolve()
    print(f"  {CONTENT} -> {after.addresses[0]} "
          f"(edge-b cache: {after.addresses[0] in caches_b}) "
          f"in {after.query_time_ms:.1f} ms")

    assert before.addresses[0] in caches_a
    assert after.addresses[0] in caches_b
    print("\nSame name, same UE — but each edge answered with its own "
          "local cache. That is P2 surviving mobility.")


if __name__ == "__main__":
    main()
