"""Declarative fault plans and the injector that replays them.

A :class:`FaultPlan` is a schedule of timed fault events — server
crashes and restarts, brownouts, burst loss, partitions — built with
chainable helper methods.  A
:class:`FaultInjector` binds the plan to a live
:class:`~repro.netsim.network.Network` and schedules every event on the
simulator clock.  Nothing in this module draws randomness of its own:
event times are fixed by the plan and any stochastic loss flows from the
network's seeded link-delay stream, so the same seed replays the same
fault timeline byte for byte (the injector keeps the proof in
:attr:`FaultInjector.timeline`).

The paper's §3 resilience arguments — fall back to the provider's L-DNS
under high ingress, survive DoS on MEC components — are only testable
against a substrate that can misbehave on schedule; this module is that
substrate.  The hooks it drives (``Host.down``, ``Host.brownout_ms``,
``Link.loss_model``, ``Network.partition``) are all no-fault-defaulted
attributes, so an uninstalled plan costs nothing.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import SimulationError
from repro.faults.burstloss import GilbertElliott
from repro.netsim.network import Network


class FaultEvent(NamedTuple):
    """One scheduled fault action."""

    at_ms: float
    kind: str          # e.g. "host-down", "burst-on", "partition-on"
    target: str        # human-readable target ("host x", "link a<->b")
    fault_id: int      # pairs -on/-off events of the same fault
    params: dict

    def describe(self) -> str:
        """Human-readable one-liner used in injector timelines."""
        return f"{self.kind} {self.target}"


class FaultPlan:
    """A reusable, network-independent schedule of fault events."""

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []
        self._next_fault_id = 0

    @property
    def events(self) -> List[FaultEvent]:
        """Events in firing order (time, then insertion order)."""
        return sorted(self._events,
                      key=lambda event: (event.at_ms, event.fault_id))

    def __len__(self) -> int:
        return len(self._events)

    # -- builders ---------------------------------------------------------------

    def _add(self, at_ms: float, kind: str, target: str, fault_id: int,
             **params) -> None:
        if at_ms < 0:
            raise ValueError(f"fault time {at_ms} must be >= 0")
        self._events.append(FaultEvent(at_ms, kind, target, fault_id, params))

    def _allocate(self) -> int:
        self._next_fault_id += 1
        return self._next_fault_id

    def crash_host(self, host: str, at_ms: float,
                   duration_ms: Optional[float] = None) -> "FaultPlan":
        """Crash ``host`` at ``at_ms``; restart after ``duration_ms``."""
        fault = self._allocate()
        self._add(at_ms, "host-down", f"host {host}", fault, host=host)
        if duration_ms is not None:
            self._add(at_ms + duration_ms, "host-up", f"host {host}", fault,
                      host=host)
        return self

    def brownout_host(self, host: str, at_ms: float, slow_ms: float,
                      duration_ms: Optional[float] = None) -> "FaultPlan":
        """Make ``host`` answer ``slow_ms`` late (up but degraded)."""
        if slow_ms <= 0:
            raise ValueError(f"brownout delay {slow_ms} must be positive")
        fault = self._allocate()
        self._add(at_ms, "brownout-on", f"host {host}", fault,
                  host=host, slow_ms=slow_ms)
        if duration_ms is not None:
            self._add(at_ms + duration_ms, "brownout-off", f"host {host}",
                      fault, host=host)
        return self

    def burst_loss(self, a: str, b: str, at_ms: float,
                   p_enter: float = 0.02, p_exit: float = 0.25,
                   bad_loss: float = 0.95,
                   good_loss: float = 0.0) -> "FaultPlan":
        """Install a Gilbert–Elliott burst-loss process on a link for the
        rest of the run."""
        GilbertElliott(p_enter, p_exit, bad_loss, good_loss)  # validate now
        self._add(at_ms, "burst-on", f"link {a}<->{b}", self._allocate(),
                  a=a, b=b, p_enter=p_enter, p_exit=p_exit,
                  bad_loss=bad_loss, good_loss=good_loss)
        return self

    def partition(self, group: Sequence[str], at_ms: float,
                  duration_ms: Optional[float] = None) -> "FaultPlan":
        """Cut the hosts in ``group`` off from everything else."""
        label = f"partition {{{','.join(sorted(group))}}}"
        fault = self._allocate()
        self._add(at_ms, "partition-on", label, fault, group=list(group))
        if duration_ms is not None:
            self._add(at_ms + duration_ms, "partition-off", label, fault)
        return self


class FaultInjector:
    """Binds a :class:`FaultPlan` to a network and replays it."""

    def __init__(self, network: Network, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.installed = False
        self.events_fired = 0
        #: Chronological proof of what happened: "t=<ms> <kind> <target>"
        #: lines, appended as each event fires.  Two runs with the same
        #: seed and plan produce identical timelines.
        self.timeline: List[str] = []
        self._partition_tokens: Dict[int, object] = {}

    def install(self) -> "FaultInjector":
        """Schedule every plan event on the simulator clock."""
        if self.installed:
            raise SimulationError("fault plan already installed")
        self.installed = True
        for event in self.plan.events:
            self.network.sim.call_at(event.at_ms, self._fire, event)
        return self

    # -- event dispatch -----------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        handler = getattr(self, "_apply_" + event.kind.replace("-", "_"))
        handler(event)
        self.events_fired += 1
        self.timeline.append(
            f"t={self.network.sim.now:.3f} {event.describe()}")
        tel = self.network.telemetry
        if tel is not None:
            tel.metrics.counter("repro_faults_fired_total",
                                "fault-plan events applied").inc(
                                    kind=event.kind)
            tel.tracer.event("fault", "faults", "fault-injector",
                             kind=event.kind, detail=event.describe())
            tel.timeseries.annotate(self.network.sim.now, "fault",
                                    detail=event.describe(),
                                    scope="fault-injector")

    def _apply_host_down(self, event: FaultEvent) -> None:
        self.network.host(event.params["host"]).down = True

    def _apply_host_up(self, event: FaultEvent) -> None:
        self.network.host(event.params["host"]).down = False

    def _apply_brownout_on(self, event: FaultEvent) -> None:
        host = self.network.host(event.params["host"])
        host.brownout_ms = event.params["slow_ms"]

    def _apply_brownout_off(self, event: FaultEvent) -> None:
        self.network.host(event.params["host"]).brownout_ms = 0.0

    def _apply_burst_on(self, event: FaultEvent) -> None:
        model = GilbertElliott(event.params["p_enter"],
                               event.params["p_exit"],
                               event.params["bad_loss"],
                               event.params["good_loss"])
        self._link(event).loss_model = model

    def _apply_partition_on(self, event: FaultEvent) -> None:
        self._partition_tokens[event.fault_id] = self.network.partition(
            event.params["group"])

    def _apply_partition_off(self, event: FaultEvent) -> None:
        token = self._partition_tokens.pop(event.fault_id, None)
        if token is None:
            raise SimulationError(
                f"partition-off without a matching partition-on "
                f"(fault {event.fault_id})")
        self.network.heal_partition(token)

    def _link(self, event: FaultEvent):
        return self.network.link_between(event.params["a"], event.params["b"])

    def __repr__(self) -> str:
        return (f"FaultInjector({len(self.plan)} events, "
                f"fired={self.events_fired}, installed={self.installed})")


def inject(network: Network, plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` on ``network``; returns the live injector."""
    return FaultInjector(network, plan).install()
