"""Tests for the orchestrator: nodes, pods, services, cluster IPs."""

import pytest

from repro.errors import CapacityError, MecError, ServiceNotFound
from repro.mec import Orchestrator
from repro.netsim import Constant, Network, RandomStreams, Simulator


@pytest.fixture
def cluster():
    sim = Simulator()
    net = Network(sim, RandomStreams(1))
    node_a = net.add_host("node-a", "10.40.2.10")
    node_b = net.add_host("node-b", "10.40.2.11")
    net.add_link("node-a", "node-b", Constant(0.1))
    orch = Orchestrator(net, "edge1")
    orch.register_node(node_a, capacity=2)
    orch.register_node(node_b, capacity=2)
    return net, orch


class TestServices:
    def test_cluster_ip_allocated_from_service_cidr(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns", namespace="kube-system")
        assert service.cluster_ip.startswith("10.96.")
        assert service.fqdn == "dns.kube-system.svc.cluster.local."

    def test_distinct_cluster_ips(self, cluster):
        _, orch = cluster
        a = orch.create_service("a")
        b = orch.create_service("b")
        assert a.cluster_ip != b.cluster_ip

    def test_duplicate_service_rejected(self, cluster):
        _, orch = cluster
        orch.create_service("dns")
        with pytest.raises(MecError):
            orch.create_service("dns")

    def test_service_lookup(self, cluster):
        _, orch = cluster
        created = orch.create_service("dns", namespace="kube-system")
        assert orch.service("dns", "kube-system") is created
        with pytest.raises(ServiceNotFound):
            orch.service("ghost")

    def test_resolve_service_name(self, cluster):
        _, orch = cluster
        service = orch.create_service("tr", namespace="cdn")
        assert orch.resolve_service_name("tr.cdn.svc.cluster.local.") is service
        assert orch.resolve_service_name("tr.cdn.svc.cluster.local") is service
        assert orch.resolve_service_name("no.cdn.svc.cluster.local.") is None


class TestPods:
    def test_deploy_binds_cluster_ip_to_first_pod(self, cluster):
        net, orch = cluster
        service = orch.create_service("dns")
        pod = orch.deploy_pod(service)
        assert service.active_pod is pod
        assert net.host_for_ip(service.cluster_ip) is pod.host
        assert pod.host.address.startswith("10.233.")

    def test_pod_host_reachable_over_fabric(self, cluster):
        net, orch = cluster
        service = orch.create_service("dns")
        pod = orch.deploy_pod(service)
        assert net.path("node-b", pod.host.name)

    def test_starter_callback_runs(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        pod = orch.deploy_pod(service, starter=lambda p: f"app@{p.name}")
        assert pod.app == f"app@{pod.name}"

    def test_capacity_enforced(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        for _ in range(4):
            orch.deploy_pod(service)
        with pytest.raises(CapacityError):
            orch.deploy_pod(service)

    def test_kill_rebinds_cluster_ip(self, cluster):
        net, orch = cluster
        service = orch.create_service("dns")
        first = orch.deploy_pod(service)
        second = orch.deploy_pod(service)
        orch.kill_pod(first)
        assert not first.running
        assert service.active_pod is second
        assert net.host_for_ip(service.cluster_ip) is second.host

    def test_kill_last_pod_leaves_ip_unbound(self, cluster):
        net, orch = cluster
        service = orch.create_service("dns")
        pod = orch.deploy_pod(service)
        orch.kill_pod(pod)
        from repro.errors import AddressError
        with pytest.raises(AddressError):
            net.host_for_ip(service.cluster_ip)

    def test_kill_is_idempotent(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        pod = orch.deploy_pod(service)
        orch.kill_pod(pod)
        orch.kill_pod(pod)  # no error

    def test_scale_up_and_down(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        orch.scale(service, 3)
        assert len(service.ready_pods()) == 3
        orch.scale(service, 1)
        assert len(service.ready_pods()) == 1
        # Cluster IP still bound to a live pod after the scaling event.
        assert service.active_pod is not None
        assert service.active_pod.running

    def test_scale_negative_rejected(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        with pytest.raises(ValueError):
            orch.scale(service, -1)

    def test_node_free_slots(self, cluster):
        _, orch = cluster
        service = orch.create_service("dns")
        orch.deploy_pod(service)
        assert orch.nodes[0].free_slots == 1

    def test_invalid_node_capacity(self, cluster):
        net, orch = cluster
        host = net.add_host("node-c", "10.40.2.12")
        with pytest.raises(ValueError):
            orch.register_node(host, capacity=0)
