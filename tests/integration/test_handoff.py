"""DNS continuity across an inter-edge handoff.

The paper's §3 design switches the UE's DNS target "as part of the
cellular hand-off process".  Two MEC-CDN sites behind one packet core:
answers must be edge-local to whichever site serves the UE's cell, and
latency must stay in the MEC envelope on both sides of the handoff.
"""

from repro.cdn import ContentCatalog
from repro.core import MecCdnSite
from repro.core.deployments import TESTBED_LTE
from repro.dnswire import Name
from repro.mobile import EvolvedPacketCore, HandoffController, UserEquipment
from repro.netsim import Constant, Network, RandomStreams, Simulator

CDN_DOMAIN = Name("mycdn.ciab.test")
CONTENT = Name("video.demo1.mycdn.ciab.test")


def build_two_site_world(seed=19):
    sim = Simulator()
    net = Network(sim, RandomStreams(seed))
    epc = EvolvedPacketCore(net, "lte", TESTBED_LTE,
                            sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
                            public_ips=["198.51.100.1"])
    sites = []
    for index, (subnet, service_cidr, pod_cidr) in enumerate((
            ("10.40.2", "10.96.0.0/17", "10.233.64.0/19"),
            ("10.40.3", "10.96.128.0/17", "10.233.96.0/19"))):
        nodes = []
        for node_index in range(2):
            node = net.add_host(f"edge{index}-node-{node_index}",
                                f"{subnet}.{10 + node_index}")
            net.add_link(node.name, epc.pgw.name, Constant(0.25))
            nodes.append(node)
        net.add_link(nodes[0].name, nodes[1].name, Constant(0.2))
        catalog = ContentCatalog()
        catalog.add_object(CONTENT, "/seg1.ts", 200_000)
        sites.append(MecCdnSite(
            net, f"edge{index}", nodes, catalog, cdn_domain=CDN_DOMAIN,
            client_networks=["10.45.0.0/16", "10.40.0.0/16", pod_cidr],
            service_cidr=service_cidr, pod_cidr=pod_cidr))
    cells = [
        epc.add_base_station("enb-0", "10.40.1.1",
                             mec_dns=sites[0].ldns_endpoint),
        epc.add_base_station("enb-1", "10.40.1.2",
                             mec_dns=sites[1].ldns_endpoint),
    ]
    ue = UserEquipment(net, "ue-1", "10.45.0.2")
    cells[0].attach(ue)
    return sim, net, ue, cells, sites


def test_resolution_stays_edge_local_across_the_handoff():
    sim, net, ue, cells, sites = build_two_site_world()

    def resolve():
        return sim.run_until_resolved(sim.spawn(ue.stub().query(CONTENT)))

    before = [resolve() for _ in range(8)]
    HandoffController(net).handoff(ue, cells[1])
    after = [resolve() for _ in range(8)]

    for results, site in ((before, sites[0]), (after, sites[1])):
        site_ips = {cache.endpoint.ip for cache in site.caches}
        assert all(r.addresses[0] in site_ips for r in results)
        mean_ms = sum(r.query_time_ms for r in results) / len(results)
        assert mean_ms < 20
