"""NOTIFY/IXFR propagation between the authoritative tiers.

The registry's new versions have to reach the MEC before they matter:
the coordinator installs each version into the CDN's **primary**
authoritative server (journalled, so secondaries can pull diffs), then
drives the MEC-local **secondary** with the RFC 1996 fast path — a
NOTIFY a short control-plane delay after the update — and retries the
transfer on a fixed cadence when faults eat it.  After ``MAX_RETRIES``
the secondary's own periodic SOA refresh is the recovery path.

When an installed version lands at the secondary, the coordinator fires
``on_applied`` so the assembly (:mod:`repro.control.plane`) can rebuild
the traffic router's view from the *propagated* zone content.  Between
an update and its apply, :meth:`PropagationCoordinator.in_flight` is
True — that interval is the propagation window every staleness metric
is measured against, and it is what the CoreDNS cache plugin's
``churn_window`` hook is wired to.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.dnswire.zone import Zone
from repro.netsim.network import Network
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.xfr import SecondaryZone

from repro.control.registry import ZoneRegistry, ZoneUpdate

#: Control-plane delay between a registry update and the NOTIFY going
#: out (config push, reconciliation loop tick).
NOTIFY_DELAY_MS = 40.0

#: Cadence of transfer retries while a version is still in flight.
RETRY_DELAY_MS = 700.0

#: Retries before the coordinator leaves recovery to the refresh loop.
MAX_RETRIES = 8


class PropagationRecord:
    """Lifecycle of one zone version on its way to the MEC."""

    __slots__ = ("serial", "update_time", "notified_at", "installed_at",
                 "applied_at", "attempts")

    def __init__(self, serial: int, update_time: float) -> None:
        self.serial = serial
        self.update_time = update_time
        self.notified_at: Optional[float] = None
        self.installed_at: Optional[float] = None
        self.applied_at: Optional[float] = None
        self.attempts = 0

    @property
    def delay_ms(self) -> Optional[float]:
        """Update-to-applied propagation delay, if it completed."""
        if self.applied_at is None:
            return None
        return self.applied_at - self.update_time

    def describe(self) -> str:
        """One deterministic lifecycle line (digest material)."""
        def stamp(value: Optional[float]) -> str:
            return f"{value:.1f}" if value is not None else "never"
        return (f"serial={self.serial} updated={self.update_time:.1f} "
                f"notified={stamp(self.notified_at)} "
                f"installed={stamp(self.installed_at)} "
                f"applied={stamp(self.applied_at)} "
                f"attempts={self.attempts}")


class PropagationCoordinator:
    """Pushes registry versions to the primary and on to the secondary."""

    def __init__(self, network: Network, registry: ZoneRegistry,
                 primary: AuthoritativeServer, secondary: SecondaryZone,
                 on_applied: Callable[[Zone], None]) -> None:
        self.network = network
        self.registry = registry
        self.primary = primary
        self.secondary = secondary
        self.on_applied = on_applied
        #: serial -> lifecycle record, in update order.
        self.records: Dict[int, PropagationRecord] = {}
        self._target_serial = registry.serial
        self._loop_running = False
        registry.subscribe(self._on_update)
        secondary.on_install = self._on_install

    # -- the update side ----------------------------------------------------

    def _on_update(self, update: ZoneUpdate, zone: Zone) -> None:
        """Registry published a version: install at primary, plan NOTIFY."""
        self.primary.add_zone(zone)
        self.records[update.serial] = PropagationRecord(
            update.serial, update.time)
        self._target_serial = update.serial
        sim = self.network.sim
        sim.call_at(sim.now + NOTIFY_DELAY_MS, self._start_notify_loop)

    def _start_notify_loop(self) -> None:
        if self._loop_running:
            return
        self._loop_running = True
        self.network.sim.spawn(self._notify_loop())

    def _notify_loop(self) -> Generator:
        """NOTIFY, then retry the transfer until current or out of tries."""
        attempts = 0
        try:
            while self._behind() and attempts < MAX_RETRIES:
                attempts += 1
                now = self.network.sim.now
                for record in self.records.values():
                    if record.notified_at is None:
                        record.notified_at = now
                    if record.applied_at is None:
                        record.attempts += 1
                # A NOTIFY makes the secondary refresh out of turn.
                yield from self.secondary.refresh_once()
                if not self._behind():
                    return
                yield RETRY_DELAY_MS
        finally:
            self._loop_running = False
            # Updates that raced in while we were giving up get a fresh
            # loop at their own NOTIFY time (already scheduled).

    def _behind(self) -> bool:
        return self.secondary.serial < self._target_serial

    # -- the install side ---------------------------------------------------

    def _on_install(self, time: float, serial: int) -> None:
        """The secondary installed ``serial``: close records, apply."""
        record: Optional[PropagationRecord] = None
        for pending in self.records.values():
            if pending.serial <= serial and pending.installed_at is None:
                pending.installed_at = time
                record = pending
        if record is None:
            return  # a re-install of an already-applied version
        zone = self.secondary.server.zones[self.registry.origin]
        for pending in self.records.values():
            if pending.serial <= serial and pending.applied_at is None:
                pending.applied_at = time
        self.on_applied(zone)
        tel = self.network.telemetry
        if tel is not None:
            delay = record.delay_ms
            tel.tracer.event(
                "control.zone_applied", "control", "propagation",
                serial=serial, delay_ms=delay if delay is not None else -1.0)
            tel.metrics.counter(
                "repro_control_zone_applied_total",
                "zone versions applied to the MEC routing view").inc(
                    origin=str(self.registry.origin))
            tel.timeseries.annotate(
                time, "zone_applied",
                detail=(f"serial={serial} delay_ms="
                        f"{delay:.1f}" if delay is not None
                        else f"serial={serial}"),
                scope=str(self.registry.origin))

    # -- observability ------------------------------------------------------

    def in_flight(self) -> bool:
        """Whether any published version has not reached the router yet."""
        return any(record.applied_at is None
                   for record in self.records.values())

    def log(self) -> List[str]:
        """One line per version, in update order (digest material)."""
        return [self.records[serial].describe()
                for serial in sorted(self.records)]

    def __repr__(self) -> str:
        pending = sum(1 for r in self.records.values()
                      if r.applied_at is None)
        return (f"PropagationCoordinator(target={self._target_serial}, "
                f"{pending} in flight)")
