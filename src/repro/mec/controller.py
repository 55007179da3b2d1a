"""ReplicaController: keep a service at its desired pod count.

Kubernetes' ReplicaSet behaviour, reduced to what the MEC-CDN needs: a
reconciliation loop that watches a service's ready pods and deploys
replacements when pods die, so the fixed cluster IP always has a live
backend (the availability property §4 leans on).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.errors import CapacityError
from repro.mec.cluster import Orchestrator, Pod, Service


class ReplicaController:
    """Reconciles one service toward ``replicas`` ready pods."""

    def __init__(self, orchestrator: Orchestrator, service: Service,
                 starter: Callable[[Pod], object], replicas: int,
                 check_interval_ms: float = 1000.0) -> None:
        if replicas < 1:
            raise ValueError("desired replica count must be >= 1")
        self.orchestrator = orchestrator
        self.service = service
        self.starter = starter
        self.replicas = replicas
        self.check_interval_ms = check_interval_ms
        self.restarts = 0
        self.reconciliations = 0
        self.placement_failures = 0
        self._running = False

    def reconcile_once(self) -> int:
        """Deploy pods until the service is at its desired count.

        Returns how many pods were started.  Placement failures (no node
        capacity) are counted and retried on the next cycle rather than
        raised — the controller must keep running.
        """
        self.reconciliations += 1
        started = 0
        while len(self.service.ready_pods()) < self.replicas:
            try:
                self.orchestrator.deploy_pod(self.service, self.starter)
            except CapacityError:
                self.placement_failures += 1
                break
            started += 1
            self.restarts += 1
        return started

    def start(self) -> None:
        """Start the background control loop (a simulator process)."""
        if self._running:
            return
        self._running = True
        network = self.orchestrator.network

        def loop() -> Generator:
            while self._running:
                self.reconcile_once()
                yield self.check_interval_ms

        network.sim.spawn(loop())

    def stop(self) -> None:
        """Stop the background control loop after its current cycle."""
        self._running = False

    def __repr__(self) -> str:
        return (f"ReplicaController({self.service.fqdn} x{self.replicas}, "
                f"restarts={self.restarts})")
