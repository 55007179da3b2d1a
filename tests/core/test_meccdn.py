"""Tests for the MEC-CDN site assembly (Figure 4)."""

import pytest

from repro.cdn import ContentCatalog, HttpClient
from repro.core import MecCdnSite
from repro.dnswire import Name
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import StubResolver


class SiteScenario:
    def __init__(self, **site_kwargs):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(33))
        nodes = []
        for index in range(2):
            node = self.net.add_host(f"node-{index}", f"10.40.2.{10 + index}")
            nodes.append(node)
        self.net.add_link("node-0", "node-1", Constant(0.2))
        self.net.add_host("ue", "10.45.0.2")
        self.net.add_link("ue", "node-0", Constant(5))
        self.catalog = ContentCatalog()
        self.item = self.catalog.add_object(
            Name("video.demo1.mycdn.ciab.test"), "/seg1.ts", 200_000)
        self.site = MecCdnSite(self.net, "edge1", nodes, self.catalog,
                               **site_kwargs)

    def query(self, qname="video.demo1.mycdn.ciab.test", host="ue"):
        stub = StubResolver(self.net, self.net.host(host),
                            self.site.ldns_endpoint)
        future = self.sim.spawn(stub.query(Name(qname)))
        return self.sim.run_until_resolved(future)


class TestMecCdnSite:
    def test_single_hop_resolution_to_edge_cache(self):
        scenario = SiteScenario()
        result = scenario.query()
        assert result.status == "NOERROR"
        assert result.addresses[0] in [cache.endpoint.ip
                                       for cache in scenario.site.caches]
        # Resolution fully contained at MEC: one stub-domain forward.
        assert scenario.site.ldns.stub.forwarded == 1

    def test_end_to_end_dns_plus_fetch(self):
        scenario = SiteScenario()
        cache_ip = scenario.query().addresses[0]
        client = HttpClient(scenario.net, scenario.net.host("ue"))
        future = scenario.sim.spawn(client.fetch(scenario.item.url, cache_ip))
        fetched = scenario.sim.run_until_resolved(future)
        assert fetched.status == 200
        assert fetched.cache_hit  # warmed caches

    def test_cluster_ip_is_what_clients_use(self):
        scenario = SiteScenario()
        # The UE talks to the CoreDNS service cluster IP (10.96/16), not
        # a pod or node address — the paper's no-public-IPs point.
        assert scenario.site.ldns_endpoint.ip.startswith("10.96.")

    def test_public_namespace_blocks_cluster_names_for_ue(self):
        scenario = SiteScenario()
        result = scenario.query("trafficrouter.cdn.svc.cluster.local")
        assert result.status == "REFUSED"

    def test_internal_namespace_serves_cluster_names(self):
        scenario = SiteScenario()
        vnf = scenario.net.add_host("vnf", "10.40.3.3")
        scenario.net.add_link("vnf", "node-0", Constant(0.2))
        result = scenario.query("trafficrouter.cdn.svc.cluster.local",
                                host="vnf")
        assert result.status == "NOERROR"
        assert result.addresses == [scenario.site.cdns_service.cluster_ip]

    def test_warm_caches_hold_domain_content(self):
        scenario = SiteScenario()
        for cache in scenario.site.caches:
            assert cache.contains(scenario.item.url)

    def test_unwarmed_site(self):
        scenario = SiteScenario(warm_caches=False)
        for cache in scenario.site.caches:
            assert not cache.contains(scenario.item.url)

    def test_scaling_event_keeps_cdns_reachable(self):
        scenario = SiteScenario()
        first = scenario.query()
        # Kill the C-DNS pod and deploy a replacement (scaling event).
        site = scenario.site
        old_pod = site.cdns_pod
        new_pod = site.orchestrator.deploy_pod(site.cdns_service,
                                               starter=site._start_cdns)
        site.orchestrator.kill_pod(old_pod)
        old_pod.app.sock.close()
        # The stub domain still points at the same fixed cluster IP.
        second = scenario.query()
        assert second.status == "NOERROR"
        assert second.addresses[0] in [cache.endpoint.ip
                                       for cache in site.caches]

    def test_publish_additional_domain(self):
        scenario = SiteScenario()
        scenario.site.publish_domain(Name("othercdn.test"),
                                     scenario.site.cdns_service.endpoint)
        assert scenario.site.split_namespace.is_public(
            Name("x.othercdn.test"))

    def test_requires_nodes(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(1))
        with pytest.raises(ValueError):
            MecCdnSite(net, "edge1", [], ContentCatalog())

    def test_answer_not_pinned_with_ttl_zero(self):
        scenario = SiteScenario()
        # answer_ttl=0 (default): the L-DNS cache must not pin the answer,
        # so every query exercises the router.
        scenario.query()
        scenario.query()
        assert scenario.site.ldns.stub.forwarded == 2
