"""Zone transfer (AXFR, RFC 5936) and secondary-zone maintenance.

The MEC platform needs the CDN's delivery zone locally; in real
deployments that zone is either pushed by the orchestrator or pulled with
standard zone transfer.  Both the primary side (AXFR answers out of an
authoritative server) and the secondary side (serial polling + transfer +
reload) are implemented:

* the primary answers AXFR queries with the full zone, SOA first and
  last, as RFC 5936 requires, in one answer: a real transfer rides TCP,
  but the simulated fabric has no size limit, so one datagram exchange
  carries it whole;
* :class:`SecondaryZone` polls the primary's SOA serial every
  ``refresh_ms`` and pulls + installs a fresh copy when it changes.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.dnswire.message import ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import SOA
from repro.dnswire.types import Rcode, RecordType
from repro.dnswire.zone import Zone
from repro.errors import QueryTimeout, ZoneError
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver

DEFAULT_REFRESH_MS = 60_000.0


class ZoneDelta:
    """One zone change set: what an IXFR diff block carries (RFC 1995)."""

    __slots__ = ("old_soa", "new_soa", "deleted", "added")

    def __init__(self, old_soa: ResourceRecord, new_soa: ResourceRecord,
                 deleted: List[ResourceRecord],
                 added: List[ResourceRecord]) -> None:
        self.old_soa = old_soa
        self.new_soa = new_soa
        self.deleted = deleted
        self.added = added

    @property
    def old_serial(self) -> int:
        return self.old_soa.rdata.serial  # type: ignore[attr-defined]

    @property
    def new_serial(self) -> int:
        return self.new_soa.rdata.serial  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (f"ZoneDelta({self.old_serial} -> {self.new_serial}, "
                f"-{len(self.deleted)} +{len(self.added)})")


def diff_zones(old: Zone, new: Zone) -> ZoneDelta:
    """Compute the change set between two versions of a zone."""
    if old.soa is None or new.soa is None:
        raise ZoneError("both zone versions need an SOA to diff")
    old_records = set(record for record in old.records()
                      if record.rtype != RecordType.SOA)
    new_records = set(record for record in new.records()
                      if record.rtype != RecordType.SOA)
    return ZoneDelta(
        old_soa=old.soa, new_soa=new.soa,
        deleted=sorted(old_records - new_records, key=lambda r: str(r.name)),
        added=sorted(new_records - old_records, key=lambda r: str(r.name)))


#: Default bound on retained IXFR history per origin.
DEFAULT_JOURNAL_DEPTH = 16


class ZoneJournal:
    """Per-origin history of change sets, for serving IXFR.

    ``depth`` bounds retained history; a request older than the history
    falls back to a full transfer, exactly as real servers do.
    """

    def __init__(self, depth: int = DEFAULT_JOURNAL_DEPTH) -> None:
        if depth < 1:
            raise ValueError("journal depth must be >= 1")
        self.depth = depth
        self._deltas: dict = {}

    def record(self, origin: Name, old: Zone, new: Zone) -> ZoneDelta:
        """Append the old->new change set for ``origin``."""
        delta = diff_zones(old, new)
        history = self._deltas.setdefault(origin, [])
        history.append(delta)
        del history[:-self.depth]
        return delta

    def deltas_since(self, origin: Name,
                     serial: int) -> Optional[List[ZoneDelta]]:
        """The chain of deltas from ``serial`` to now, or None if gone."""
        history = self._deltas.get(origin, [])
        chain: List[ZoneDelta] = []
        collecting = False
        for delta in history:
            if delta.old_serial == serial:
                collecting = True
            if collecting:
                if chain and delta.old_serial != chain[-1].new_serial:
                    return None  # broken chain; history rotated oddly
                chain.append(delta)
        return chain if collecting else None


def ixfr_response_records(zone: Zone,
                          deltas: List[ZoneDelta]) -> List[ResourceRecord]:
    """An incremental transfer payload (RFC 1995 §4).

    ``SOA(new)`` then, per delta, ``SOA(old) deletions... SOA(next)
    additions...``, closed by ``SOA(new)``.
    """
    soa = zone.soa
    if soa is None:
        raise ZoneError(f"zone {zone.origin} has no SOA")
    records: List[ResourceRecord] = [soa]
    for delta in deltas:
        records.append(delta.old_soa)
        records.extend(delta.deleted)
        records.append(delta.new_soa)
        records.extend(delta.added)
    records.append(soa)
    return records


def apply_ixfr(zone: Zone, answers: List[ResourceRecord]) -> Zone:
    """Apply an IXFR answer section to a copy of ``zone``.

    Handles all three RFC 1995 response forms: up-to-date (single SOA),
    AXFR-style fallback (second record is not an SOA), and the diff
    sequence.
    """
    if not answers or answers[0].rtype != RecordType.SOA:
        raise ZoneError("IXFR response must start with the new SOA")
    if len(answers) == 1:
        return zone  # already current
    if answers[1].rtype != RecordType.SOA:
        return zone_from_axfr(zone.origin, answers)
    if answers[1].rdata == answers[0].rdata:
        # AXFR-style fallback of a zone holding nothing but its SOA:
        # [SOA, SOA] with equal rdata is a full transfer, not a diff
        # whose first old-SOA happens to equal the new one.
        return zone_from_axfr(zone.origin, answers)
    if zone.soa is not None:
        first_old = answers[1].rdata
        ours = zone.soa.rdata
        if isinstance(first_old, SOA) and isinstance(ours, SOA) \
                and first_old.serial != ours.serial:
            # The diff chain starts at a serial we do not hold; applying
            # it would silently install a corrupt zone.  Raising makes
            # the secondary fall back to a full AXFR instead.
            raise ZoneError(
                f"IXFR diff starts at serial {first_old.serial}, "
                f"but we hold {ours.serial}; refusing to apply")

    updated = Zone(zone.origin)
    for record in zone.records():
        updated.add(record)
    index = 1
    final_soa = answers[-1]
    while index < len(answers) - 1:
        old_soa = answers[index]
        if old_soa.rtype != RecordType.SOA:
            raise ZoneError("malformed IXFR diff: expected old SOA")
        index += 1
        deletions: List[ResourceRecord] = []
        while index < len(answers) and answers[index].rtype != RecordType.SOA:
            deletions.append(answers[index])
            index += 1
        if index >= len(answers):
            raise ZoneError("malformed IXFR diff: missing new SOA")
        new_soa = answers[index]
        index += 1
        additions: List[ResourceRecord] = []
        while index < len(answers) - 1 \
                and answers[index].rtype != RecordType.SOA:
            additions.append(answers[index])
            index += 1
        if updated.soa is not None:
            updated.remove(updated.soa)
        for record in deletions:
            updated.remove(record)
        updated.add(new_soa)
        for record in additions:
            updated.add(record)
    if updated.soa is None or updated.soa.rdata != final_soa.rdata:  # type: ignore[union-attr]
        raise ZoneError("IXFR application did not converge on the new SOA")
    return updated


def axfr_response_records(zone: Zone) -> List[ResourceRecord]:
    """The transfer payload: SOA, everything else, SOA again."""
    soa = zone.soa
    if soa is None:
        raise ZoneError(f"zone {zone.origin} has no SOA; cannot transfer")
    body = [record for record in zone.records()
            if record.rtype != RecordType.SOA]
    return [soa] + body + [soa]


def zone_from_axfr(origin: Name,
                   records: List[ResourceRecord]) -> Zone:
    """Rebuild a zone from a transfer answer section."""
    if len(records) < 2 or records[0].rtype != RecordType.SOA \
            or records[-1].rtype != RecordType.SOA:
        raise ZoneError("transfer does not start and end with SOA")
    if records[0].rdata != records[-1].rdata:
        raise ZoneError("transfer SOA records disagree; aborted transfer?")
    zone = Zone(origin)
    for record in records[:-1]:  # drop the trailing SOA duplicate
        zone.add(record)
    return zone


class SecondaryZone:
    """Keeps one zone on a secondary server in sync with a primary."""

    def __init__(self, network: Network, server: AuthoritativeServer,
                 origin: Name, primary: Endpoint,
                 refresh_ms: float = DEFAULT_REFRESH_MS) -> None:
        self.network = network
        self.server = server
        self.origin = origin
        self.primary = primary
        self.refresh_ms = refresh_ms
        self._stub = StubResolver(
            network, server.host, primary,
            policy=RetryPolicy(retries=1, timeout_ms=5000, backoff=1.0))
        self.transfers = 0
        self.axfr_transfers = 0
        self.ixfr_transfers = 0
        self.refreshes = 0
        self.notifies = 0
        #: (simulated time, serial) per installed transfer, oldest first
        #: — the propagation evidence the control plane reads.
        self.install_log: List[tuple] = []
        #: Called as ``on_install(time, serial)`` after every installed
        #: transfer; the control plane hangs its apply step here.
        self.on_install: Optional[Callable[[float, int], None]] = None
        self._running = False

    @property
    def serial(self) -> Optional[int]:
        zone = self.server.zones.get(self.origin)
        if zone is None or zone.soa is None:
            return None
        return zone.soa.rdata.serial  # type: ignore[attr-defined]

    # -- one refresh cycle ---------------------------------------------------

    def refresh_once(self) -> Generator:
        """Process: poll the primary's serial; transfer if it moved.

        Returns True when a transfer was installed.
        """
        self.refreshes += 1
        try:
            soa_result = yield from self._stub.query(self.origin,
                                                     RecordType.SOA)
        except QueryTimeout:
            return False
        soa_records = soa_result.response.answer_rrs(RecordType.SOA)
        if not soa_records or not isinstance(soa_records[0].rdata, SOA):
            return False
        primary_serial = soa_records[0].rdata.serial
        if self.serial is not None and primary_serial <= self.serial:
            return False
        transferred = yield from self._transfer()
        return transferred

    def _transfer(self) -> Generator:
        """Pull the zone: IXFR when we hold a version, AXFR otherwise."""
        current = self.server.zones.get(self.origin)
        if current is not None and current.soa is not None:
            done = yield from self._transfer_ixfr(current)
            return done
        done = yield from self._transfer_axfr()
        return done

    def _transfer_axfr(self) -> Generator:
        try:
            result = yield from self._stub.query(self.origin,
                                                 RecordType.AXFR)
        except QueryTimeout:
            return False
        if result.response.rcode != Rcode.NOERROR:
            return False
        try:
            zone = zone_from_axfr(self.origin, result.response.answers)
        except ZoneError:
            return False
        self._install(zone)
        self.axfr_transfers += 1
        return True

    def _transfer_ixfr(self, current: Zone) -> Generator:
        try:
            result = yield from self._stub.query(
                self.origin, RecordType.IXFR,
                authorities=[current.soa])
        except QueryTimeout:
            return False
        if result.response.rcode != Rcode.NOERROR:
            return False
        try:
            zone = apply_ixfr(current, result.response.answers)
        except ZoneError:
            # A malformed or unusable diff: retry as a full transfer.
            done = yield from self._transfer_axfr()
            return done
        if zone is current:
            return False  # already up to date; nothing installed
        self._install(zone)
        self.ixfr_transfers += 1
        return True

    def _install(self, zone: Zone) -> None:
        self.server.add_zone(zone)
        self.transfers += 1
        serial = (zone.soa.rdata.serial  # type: ignore[attr-defined]
                  if zone.soa is not None else -1)
        self.install_log.append((self.network.sim.now, serial))
        if self.on_install is not None:
            self.on_install(self.network.sim.now, serial)

    # -- NOTIFY (RFC 1996) -------------------------------------------------

    def notify(self) -> Generator:
        """Out-of-cycle refresh, as a primary's NOTIFY triggers it.

        Returns True when a transfer was installed.
        """
        self.notifies += 1
        transferred = yield from self.refresh_once()
        return transferred

    # -- continuous maintenance ---------------------------------------------------

    def start(self) -> None:
        """Poll forever, ``refresh_ms`` apart."""
        if self._running:
            return
        self._running = True

        def loop() -> Generator:
            while self._running:
                yield from self.refresh_once()
                yield self.refresh_ms

        self.network.sim.spawn(loop())

    def stop(self) -> None:
        """Stop the refresh loop after its current cycle."""
        self._running = False
