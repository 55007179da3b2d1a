"""Scheduled orchestrator churn feeding the zone registry.

A cloud controller changes the cache fleet for mundane reasons: load
swings (scale up/down) and deployments (rolling restarts that replace
every pod).  :class:`ChurnDriver` replays a declarative schedule of
those events against the MEC site's orchestrator at simulated time and
publishes the resulting endpoint set to the :class:`ZoneRegistry` — the
exact seam a KubernetesPlugin-style integration would use.

Deliberately, the driver does **not** crash the pods it deregisters:
a rolled pod keeps answering during its termination grace, so the only
thing that can tell clients to stop using it is the DNS control plane.
That is the failure mode this package measures — if the driver also
killed the host, timeouts would mask the mislocalization.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence, Tuple

from repro.cdn.cache_server import CacheServer
from repro.core.meccdn import MecCdnSite
from repro.netsim.network import Network

from repro.control.registry import ZoneRegistry

#: Event kinds: ``scale`` adjusts the replica count; ``rollout``
#: replaces every ready pod (a rolling restart, new endpoints for old).
SCALE = "scale"
ROLLOUT = "rollout"


class ChurnEvent(NamedTuple):
    """One scheduled orchestrator action."""

    at_ms: float
    kind: str              # SCALE or ROLLOUT
    replicas: int = 0      # target count; ignored for ROLLOUT


def default_schedule() -> Tuple[ChurnEvent, ...]:
    """The canonical churn timeline used by the churn experiment.

    Scale-up early, a full rolling restart mid-run (every original
    endpoint goes away), and a scale-down late — one of each move a
    real fleet makes, spread across a ~8 s measurement run.
    """
    return (ChurnEvent(1500.0, SCALE, 3),
            ChurnEvent(2600.0, ROLLOUT),
            ChurnEvent(6200.0, SCALE, 2))


class ChurnDriver:
    """Applies a churn schedule to a MEC site and the registry."""

    def __init__(self, network: Network, site: MecCdnSite,
                 registry: ZoneRegistry,
                 schedule: Sequence[ChurnEvent]) -> None:
        self.network = network
        self.site = site
        self.registry = registry
        self.schedule = tuple(sorted(schedule, key=lambda e: e.at_ms))
        #: Ground-truth live endpoint IPs, updated synchronously at each
        #: event (what the registry publishes; what answers are judged
        #: against).
        self.live: Tuple[str, ...] = self._live_ips()
        self.timeline: List[str] = []
        self.events_applied = 0
        for event in self.schedule:
            self.network.sim.call_at(event.at_ms,
                                     self._runner_for(event))

    def _runner_for(self, event: ChurnEvent) -> Callable[[], None]:
        def run() -> None:
            self.apply(event)
        return run

    # -- event application --------------------------------------------------

    def apply(self, event: ChurnEvent) -> None:
        """Execute one event now and publish the new endpoint set."""
        orchestrator = self.site.orchestrator
        service = self.site.cache_service
        if event.kind == SCALE:
            orchestrator.scale(service, event.replicas,
                               starter=self.site._start_cache)
        elif event.kind == ROLLOUT:
            ready = service.ready_pods()
            for pod in ready:
                orchestrator.kill_pod(pod)
            for _ in ready:
                orchestrator.deploy_pod(service,
                                        starter=self.site._start_cache)
        else:
            raise ValueError(f"unknown churn event kind {event.kind!r}")
        self.live = self._live_ips()
        self.events_applied += 1
        now = self.network.sim.now
        self.timeline.append(
            f"t={now:.1f} {event.kind}"
            f"{event.replicas if event.kind == SCALE else ''}"
            f" live=[{','.join(self.live)}]")
        tel = self.network.telemetry
        if tel is not None:
            tel.metrics.counter(
                "repro_control_churn_events_total",
                "orchestrator churn events applied").inc(kind=event.kind)
            tel.timeseries.annotate(
                now, "churn",
                detail=(f"{event.kind}"
                        f"{event.replicas if event.kind == SCALE else ''}"
                        f" live={len(self.live)}"),
                scope=self.site.name)
        self.registry.update(self.live)

    def _live_ips(self) -> Tuple[str, ...]:
        return tuple(sorted(
            pod.app.endpoint.ip
            for pod in self.site.cache_service.ready_pods()
            if isinstance(pod.app, CacheServer)))

    def __repr__(self) -> str:
        return (f"ChurnDriver({len(self.schedule)} events, "
                f"{self.events_applied} applied, "
                f"live=[{','.join(self.live)}])")
