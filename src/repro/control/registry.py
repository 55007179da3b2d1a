"""The versioned zone registry: cluster state as authoritative DNS data.

In the paper's design the orchestrator knows every endpoint and the CDN
publishes that knowledge as DNS.  :class:`ZoneRegistry` is the seam
between the two: it owns the canonical version of the delivery zone,
rewrites the endpoint RRset on every cluster change, bumps the SOA
serial (RFC 1982 monotonic), journals the diff for incremental transfer
(RFC 1995, bounded history), and tells its subscribers — the propagation
coordinator, the staleness monitor — that a new version exists.

The registry never touches the network itself; propagation is the
coordinator's job.  Keeping the source of truth synchronous and pure is
what makes the staleness accounting exact: an update's timestamp is the
instant the *cluster* changed, not the instant DNS caught up.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Tuple

from repro.dnswire.message import ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import A, SOA
from repro.dnswire.types import RecordType
from repro.dnswire.zone import Zone
from repro.netsim.network import Network
from repro.resolver.xfr import DEFAULT_JOURNAL_DEPTH, ZoneJournal

#: Owner label under the origin where the endpoint RRset lives.
ENDPOINT_LABEL = "caches"

#: TTL stamped on registry-generated records; short, as CDN routing
#: answers are, so secondaries and caches re-check quickly.
REGISTRY_TTL = 30

#: SOA timers (seconds), conventional values stamped into the zone.  The
#: secondary's recovery poll does not read refresh: ``ControlPlane`` pins
#: it to ``repro.control.plane.REFRESH_MS``.
SOA_REFRESH = 30
SOA_RETRY = 10
SOA_EXPIRE = 3600
SOA_MINIMUM = 30


class ZoneUpdate(NamedTuple):
    """One registry update: what changed, and exactly when."""

    time: float
    serial: int
    addresses: Tuple[str, ...]   # the full live endpoint set, sorted
    added: Tuple[str, ...]
    removed: Tuple[str, ...]

    def describe(self) -> str:
        """One deterministic update line (digest material)."""
        return (f"t={self.time:.1f} serial={self.serial} "
                f"+[{','.join(self.added)}] -[{','.join(self.removed)}] "
                f"live=[{','.join(self.addresses)}]")


class ZoneRegistry:
    """Versioned store of the delivery zone's endpoint set."""

    def __init__(self, network: Network, origin: Name,
                 addresses: Iterable[str],
                 journal_depth: int = DEFAULT_JOURNAL_DEPTH) -> None:
        self.network = network
        self.origin = origin
        self.owner = origin.prepend(ENDPOINT_LABEL)
        self.serial = 1
        self.addresses: Tuple[str, ...] = tuple(sorted(set(addresses)))
        self.journal = ZoneJournal(depth=journal_depth)
        self.zone: Zone = self._build_zone(self.serial, self.addresses)
        #: Every applied update, oldest first (the initial version is
        #: not an update: nothing changed).
        self.updates: List[ZoneUpdate] = []
        self._subscribers: List[Callable[[ZoneUpdate, Zone], None]] = []

    # -- zone synthesis -----------------------------------------------------

    def _build_zone(self, serial: int,
                    addresses: Tuple[str, ...]) -> Zone:
        zone = Zone(self.origin)
        zone.add(ResourceRecord(
            self.origin, RecordType.SOA, REGISTRY_TTL,
            SOA(mname=self.origin.prepend("ns1"),
                rname=self.origin.prepend("hostmaster"),
                serial=serial, refresh=SOA_REFRESH, retry=SOA_RETRY,
                expire=SOA_EXPIRE, minimum=SOA_MINIMUM)))
        for address in addresses:
            zone.add(ResourceRecord(self.owner, RecordType.A,
                                    REGISTRY_TTL, A(address)))
        return zone

    @staticmethod
    def addresses_in(zone: Zone, owner: Name) -> Tuple[str, ...]:
        """The endpoint set a (possibly propagated) zone version carries."""
        addresses: List[str] = []
        for record in zone.records():
            if record.name == owner and record.rtype == RecordType.A:
                addresses.append(record.rdata.address)  # type: ignore[attr-defined]
        return tuple(sorted(addresses))

    # -- updates ------------------------------------------------------------

    def subscribe(self,
                  callback: Callable[[ZoneUpdate, Zone], None]) -> None:
        """Register a callback fired synchronously on every update."""
        self._subscribers.append(callback)

    def update(self, addresses: Iterable[str]) -> "ZoneUpdate | None":
        """Install a new endpoint set; returns None if nothing changed."""
        new_addresses = tuple(sorted(set(addresses)))
        if new_addresses == self.addresses:
            return None
        old_set, new_set = set(self.addresses), set(new_addresses)
        self.serial += 1
        new_zone = self._build_zone(self.serial, new_addresses)
        self.journal.record(self.origin, self.zone, new_zone)
        update = ZoneUpdate(
            time=self.network.sim.now, serial=self.serial,
            addresses=new_addresses,
            added=tuple(sorted(new_set - old_set)),
            removed=tuple(sorted(old_set - new_set)))
        self.zone = new_zone
        self.addresses = new_addresses
        self.updates.append(update)
        tel = self.network.telemetry
        if tel is not None:
            tel.tracer.event(
                "control.zone_update", "control", "zone-registry",
                serial=update.serial, added=len(update.added),
                removed=len(update.removed))
            tel.metrics.counter(
                "repro_control_zone_updates_total",
                "registry zone versions published").inc(
                    origin=str(self.origin))
            tel.timeseries.annotate(
                update.time, "zone_update",
                detail=(f"serial={update.serial} "
                        f"+{len(update.added)} -{len(update.removed)}"),
                scope=str(self.origin))
        for callback in self._subscribers:
            callback(update, new_zone)
        return update

    def __repr__(self) -> str:
        return (f"ZoneRegistry({self.origin}, serial={self.serial}, "
                f"{len(self.addresses)} endpoints)")
