"""Incremental zone transfer (IXFR, RFC 1995) and secondary-zone upkeep.

The MEC platform needs the CDN's delivery zone locally; in real
deployments that zone is either pushed by the orchestrator or pulled with
standard zone transfer.  Both sides of the pull are implemented:

* the primary answers IXFR out of a bounded change journal, or with the
  AXFR-style full payload (SOA first and last, RFC 1995 §4) when the
  client's serial has aged out of it, in one answer: a real transfer may
  ride TCP, but the simulated fabric has no size limit, so one datagram
  exchange carries it whole;
* :class:`SecondaryZone` holds a pre-seeded copy, polls the primary's
  SOA serial every :data:`REFRESH_MS`, and pulls + installs the change
  when it moves.
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

#: The secondary's periodic SOA refresh (the recovery path when a NOTIFY
#: is lost) and its per-query patience, one retry each: short enough that
#: a run-length fault window is survivable inside one experiment cell.
REFRESH_MS = 5000.0
SYNC_TIMEOUT_MS = 600.0


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


class ZoneJournal:
    """Per-origin history of change sets, for serving IXFR.

    ``depth`` bounds retained history; a request older than the history
    falls back to a full transfer, exactly as real servers do.
    """

    def __init__(self, depth: int) -> None:
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
            # the secondary keep its copy and ask again later.
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
    """Keeps a pre-seeded zone on a secondary server in sync with a primary.

    The server must already hold ``origin`` with its SOA (provisioned at
    deploy time); every later version arrives by IXFR.
    """

    def __init__(self, network: Network, server: AuthoritativeServer,
                 origin: Name, primary: Endpoint) -> None:
        seed = server.zones.get(origin)
        if seed is None or seed.soa is None:
            raise ValueError(f"secondary server holds no copy of {origin}; "
                             f"seed it with the zone first")
        self.network = network
        self.server = server
        self.origin = origin
        self.primary = primary
        self._stub = StubResolver(
            network, server.host, primary,
            policy=RetryPolicy(retries=1, timeout_ms=SYNC_TIMEOUT_MS,
                               backoff=1.0))
        self.transfers = 0
        self.refreshes = 0
        #: Called as ``on_install(time, serial)`` after every installed
        #: transfer; the control plane hangs its apply step here.
        self.on_install: Optional[Callable[[float, int], None]] = None
        self._running = False

    @property
    def serial(self) -> int:
        soa = self.server.zones[self.origin].soa  # seeded with one
        return soa.rdata.serial  # type: ignore[union-attr, attr-defined]

    # -- one refresh cycle ---------------------------------------------------

    def refresh_once(self) -> Generator:
        """Process: poll the primary's serial; transfer if it moved.

        A primary's NOTIFY (RFC 1996) triggers the same cycle out of
        turn.  Returns True when a transfer was installed.
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
        if soa_records[0].rdata.serial <= self.serial:
            return False
        transferred = yield from self._transfer_ixfr()
        return transferred

    def _transfer_ixfr(self) -> Generator:
        current = self.server.zones[self.origin]
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
            return False  # an unusable diff: the next cycle asks again
        if zone is current:
            return False  # already up to date; nothing installed
        self.server.add_zone(zone)
        self.transfers += 1
        if self.on_install is not None:
            self.on_install(self.network.sim.now, self.serial)
        return True

    # -- continuous maintenance ---------------------------------------------------

    def start(self) -> None:
        """Poll forever, :data:`REFRESH_MS` apart."""
        if self._running:
            return
        self._running = True

        def loop() -> Generator:
            while self._running:
                yield from self.refresh_once()
                yield REFRESH_MS

        self.network.sim.spawn(loop())

    def stop(self) -> None:
        """Stop the refresh loop after its current cycle."""
        self._running = False
