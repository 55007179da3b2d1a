"""Tests for the ReplicaController."""

import pytest

from repro.mec import Orchestrator, ReplicaController
from repro.netsim import Constant, Network, RandomStreams, Simulator


@pytest.fixture
def cluster():
    sim = Simulator()
    net = Network(sim, RandomStreams(3))
    node_a = net.add_host("node-a", "10.40.2.10")
    node_b = net.add_host("node-b", "10.40.2.11")
    net.add_link("node-a", "node-b", Constant(0.1))
    orch = Orchestrator(net, "edge1")
    orch.register_node(node_a, capacity=3)
    orch.register_node(node_b, capacity=3)
    service = orch.create_service("dns")
    return sim, net, orch, service


def starter(pod):
    return f"app@{pod.name}"


class TestReplicaController:
    def test_initial_reconcile_reaches_count(self, cluster):
        sim, net, orch, service = cluster
        controller = ReplicaController(orch, service, starter, replicas=2)
        assert controller.reconcile_once() == 2
        assert len(service.ready_pods()) == 2
        assert controller.reconcile_once() == 0  # converged

    def test_pod_death_triggers_restart(self, cluster):
        sim, net, orch, service = cluster
        controller = ReplicaController(orch, service, starter, replicas=2)
        controller.reconcile_once()
        victim = service.ready_pods()[0]
        orch.kill_pod(victim)
        assert controller.reconcile_once() == 1
        assert len(service.ready_pods()) == 2
        assert controller.restarts == 3

    def test_cluster_ip_survives_controller_restarts(self, cluster):
        sim, net, orch, service = cluster
        controller = ReplicaController(orch, service, starter, replicas=1)
        controller.reconcile_once()
        orch.kill_pod(service.ready_pods()[0])
        controller.reconcile_once()
        assert service.active_pod is not None
        assert net.host_for_ip(service.cluster_ip) is service.active_pod.host

    def test_capacity_exhaustion_not_fatal(self, cluster):
        sim, net, orch, service = cluster
        controller = ReplicaController(orch, service, starter, replicas=10)
        controller.reconcile_once()
        assert len(service.ready_pods()) == 6  # both nodes full
        assert controller.placement_failures == 1
        controller.reconcile_once()  # keeps running, keeps trying
        assert controller.placement_failures == 2

    def test_control_loop_runs_on_clock(self, cluster):
        sim, net, orch, service = cluster
        controller = ReplicaController(orch, service, starter, replicas=2,
                                       check_interval_ms=500)
        controller.start()
        sim.run(until=600)
        assert len(service.ready_pods()) == 2
        orch.kill_pod(service.ready_pods()[0])
        sim.run(until=1600)
        assert len(service.ready_pods()) == 2
        controller.stop()

    def test_invalid_replica_counts_rejected(self, cluster):
        sim, net, orch, service = cluster
        with pytest.raises(ValueError):
            ReplicaController(orch, service, starter, replicas=0)
