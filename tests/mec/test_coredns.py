"""Tests for the CoreDNS analog, split namespaces, ingress, and IP reuse."""

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import QueryTimeout
from repro.mec import (
    CoreDnsServer,
    DosMitigation,
    IngressMonitor,
    Orchestrator,
    SplitNamespacePlugin,
)
from repro.mec.ipreuse import IpPlanResult, PublicIpPlan, SiteInventory
from repro.mec.namespaces import NamespacePolicy
from repro.mobile import UserEquipment
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver import AuthoritativeServer, RetryPolicy, StubResolver


def build_zone(domain, address):
    zone = Zone(Name(domain))
    zone.add(ResourceRecord(Name(domain), RecordType.SOA,
                            300, SOA(Name(f"ns.{domain}"),
                                     Name(f"admin.{domain}"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(domain), RecordType.NS, 300,
                            NS(Name(f"ns.{domain}"))))
    zone.add(ResourceRecord(Name(f"video.{domain}"), RecordType.A, 300,
                            A(address)))
    return zone


class MecDnsScenario:
    """UE + internal VNF querying a MEC CoreDNS with stub/forward plugins."""

    def __init__(self, split=None, enable_cache=True):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(17))
        # Cluster node + clients.
        node = self.net.add_host("node-a", "10.40.2.10")
        self.net.add_host("ue", "10.45.0.2")
        self.net.add_host("vnf", "10.40.3.7")
        self.net.add_link("ue", "node-a", Constant(5))
        self.net.add_link("vnf", "node-a", Constant(0.2))
        # Upstream provider L-DNS and the C-DNS (traffic router stand-in).
        self.net.add_host("provider-ldns", "203.0.113.10")
        self.net.add_host("cdns", "10.40.4.4")
        self.net.add_link("node-a", "provider-ldns", Constant(25))
        self.net.add_link("node-a", "cdns", Constant(0.5))
        AuthoritativeServer(self.net, self.net.host("provider-ldns"),
                            [build_zone("example.com", "198.18.1.1")])
        AuthoritativeServer(self.net, self.net.host("cdns"),
                            [build_zone("mycdn.ciab.test", "10.233.1.10")])
        # Orchestrator with one registered service for discovery tests.
        self.orch = Orchestrator(self.net, "edge1")
        self.orch.register_node(node)
        self.tr_service = self.orch.create_service("tr", namespace="cdn")
        self.orch.deploy_pod(self.tr_service)
        # CoreDNS runs on the node itself.
        self.split = split
        self.coredns = CoreDnsServer(
            self.net, node, self.orch,
            stub_domains={Name("mycdn.ciab.test"):
                          Endpoint("10.40.4.4", 53)},
            upstream=Endpoint("203.0.113.10", 53),
            enable_cache=enable_cache,
            front_plugins=[split] if split else None)

    def query_from(self, host_name, qname, timeout=3000, retries=0):
        stub = StubResolver(
            self.net, self.net.host(host_name), self.coredns.endpoint,
            policy=RetryPolicy(retries=retries, timeout_ms=timeout,
                               backoff=1.0))
        future = self.sim.spawn(stub.query(Name(qname)))
        return self.sim.run_until_resolved(future)


class TestCoreDns:
    def test_kubernetes_plugin_resolves_service(self):
        scenario = MecDnsScenario()
        result = scenario.query_from("vnf", "tr.cdn.svc.cluster.local")
        assert result.addresses == [scenario.tr_service.cluster_ip]

    def test_unknown_service_nxdomain(self):
        scenario = MecDnsScenario()
        result = scenario.query_from("vnf", "ghost.cdn.svc.cluster.local")
        assert result.status == "NXDOMAIN"

    def test_service_with_no_ready_pods_nxdomain(self):
        scenario = MecDnsScenario()
        empty = scenario.orch.create_service("idle", namespace="cdn")
        result = scenario.query_from("vnf", "idle.cdn.svc.cluster.local")
        assert result.status == "NXDOMAIN"

    def test_stub_domain_forwards_to_cdns(self):
        scenario = MecDnsScenario()
        result = scenario.query_from("ue", "video.mycdn.ciab.test")
        assert result.addresses == ["10.233.1.10"]
        assert scenario.coredns.stub.forwarded == 1
        assert scenario.coredns.forward_plugin.forwarded == 0

    def test_default_forward_for_other_names(self):
        scenario = MecDnsScenario()
        result = scenario.query_from("ue", "video.example.com")
        assert result.addresses == ["198.18.1.1"]
        assert scenario.coredns.forward_plugin.forwarded == 1

    def test_cache_avoids_repeat_forwarding(self):
        scenario = MecDnsScenario()
        first = scenario.query_from("ue", "video.example.com")
        second = scenario.query_from("ue", "video.example.com")
        assert second.addresses == first.addresses
        assert scenario.coredns.forward_plugin.forwarded == 1
        assert second.query_time_ms < first.query_time_ms

    def test_cache_disabled_forwards_every_time(self):
        scenario = MecDnsScenario(enable_cache=False)
        scenario.query_from("ue", "video.example.com")
        scenario.query_from("ue", "video.example.com")
        assert scenario.coredns.forward_plugin.forwarded == 2

    def test_add_stub_domain_at_runtime(self):
        scenario = MecDnsScenario()
        scenario.coredns.add_stub_domain(Name("example.com"),
                                         Endpoint("10.40.4.4", 53))
        result = scenario.query_from("ue", "video.example.com")
        # example.com now routes to the cdns host, which refuses it.
        assert result.status == "REFUSED"

    def test_dead_upstream_servfail(self):
        scenario = MecDnsScenario(enable_cache=False)
        scenario.coredns.forward_plugin.upstream = Endpoint("10.99.9.9", 53)
        scenario.coredns.forward_plugin.timeout = 50
        result = scenario.query_from("ue", "video.example.com")
        assert result.status == "SERVFAIL"


class TestSplitNamespace:
    def make_split(self, policy=NamespacePolicy.REFUSE):
        split = SplitNamespacePlugin(internal_networks=["10.40.0.0/16"],
                                     policy=policy)
        split.register_public(Name("mycdn.ciab.test"))
        return split

    def test_internal_client_sees_cluster_names(self):
        split = self.make_split()
        scenario = MecDnsScenario(split=split)
        result = scenario.query_from("vnf", "tr.cdn.svc.cluster.local")
        assert result.status == "NOERROR"

    def test_public_client_resolves_public_namespace(self):
        split = self.make_split()
        scenario = MecDnsScenario(split=split)
        result = scenario.query_from("ue", "video.mycdn.ciab.test")
        assert result.addresses == ["10.233.1.10"]

    def test_public_client_refused_for_internal_names(self):
        split = self.make_split()
        scenario = MecDnsScenario(split=split)
        result = scenario.query_from("ue", "tr.cdn.svc.cluster.local")
        assert result.status == "REFUSED"
        assert split.refused == 1

    def test_ignore_policy_stays_silent(self):
        split = self.make_split(NamespacePolicy.IGNORE)
        scenario = MecDnsScenario(split=split)
        with pytest.raises(ProcessFailed) as excinfo:
            scenario.query_from("ue", "tr.cdn.svc.cluster.local",
                                timeout=100)
        assert isinstance(excinfo.value.__cause__, QueryTimeout)
        assert split.ignored == 1

    def test_is_public_respects_suffixes(self):
        split = self.make_split()
        assert split.is_public(Name("a.b.mycdn.ciab.test"))
        assert not split.is_public(Name("mycdn.ciab.test.evil.com"))


class TestIngress:
    def test_rate_estimation(self):
        monitor = IngressMonitor(window_ms=1000, threshold_qps=10)
        for ms in range(0, 500, 100):
            monitor.record(float(ms))
        assert monitor.rate_qps(500.0) == pytest.approx(5.0)

    def test_events_expire_from_window(self):
        monitor = IngressMonitor(window_ms=1000, threshold_qps=10)
        monitor.record(0.0)
        assert monitor.rate_qps(2000.0) == 0.0

    def test_overload_detection(self):
        monitor = IngressMonitor(window_ms=1000, threshold_qps=5)
        for ms in range(10):
            monitor.record(float(ms))
        assert monitor.overloaded(10.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            IngressMonitor(window_ms=0)

    def test_mitigation_switches_and_restores(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(2))
        ue = UserEquipment(net, "ue9", "10.45.0.9",
                           default_dns=Endpoint("10.96.0.10", 53))
        monitor = IngressMonitor(window_ms=1000, threshold_qps=5)
        mitigation = DosMitigation(monitor,
                                   mec_dns=Endpoint("10.96.0.10", 53),
                                   provider_ldns=Endpoint("203.0.113.10", 53))
        mitigation.manage(ue)
        for ms in range(10):
            monitor.record(float(ms))
        assert mitigation.evaluate(10.0)
        assert ue.dns == Endpoint("203.0.113.10", 53)
        # Load subsides: restored to the MEC DNS.
        assert not mitigation.evaluate(5000.0)
        assert ue.dns == Endpoint("10.96.0.10", 53)
        assert mitigation.activations == 1


class TestIpReuse:
    def test_dedicated_counts_every_component(self):
        site = SiteInventory("atl1", cdn_domains=20, cache_servers=8,
                             routers=1, ldns_instances=1)
        assert PublicIpPlan.dedicated_ips(site) == 30

    def test_shared_plan_is_one_ip_per_site(self):
        sites = [SiteInventory(f"site{i}", 20, 8, 1, 1) for i in range(10)]
        result = PublicIpPlan(sites).evaluate()
        assert result.shared_total == 10
        assert result.dedicated_total == 300

    def test_result_type(self):
        result = PublicIpPlan([]).evaluate()
        assert isinstance(result, IpPlanResult)
