"""Zone data with authoritative lookup semantics.

A :class:`Zone` holds the records of one authoritative zone and implements
the lookup algorithm an authoritative server needs: exact match and the
NXDOMAIN / NODATA distinction (an empty non-terminal is NODATA).  There
are no aliases, cuts or wildcards: ``add`` refuses a CNAME and an NS
below the apex, and a ``*`` label answers only its literal name.
Zones are built in code (:meth:`Zone.add`).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from repro.dnswire.name import Name
from repro.dnswire.message import ResourceRecord
from repro.dnswire.types import RecordType
from repro.errors import ZoneError


class LookupStatus(enum.Enum):
    """Outcome categories of an authoritative lookup."""

    SUCCESS = "success"          # answer records present
    NXDOMAIN = "nxdomain"        # name does not exist in the zone
    NODATA = "nodata"            # name exists; no records of this type


class LookupResult:
    """The outcome of :meth:`Zone.lookup`."""

    __slots__ = ("status", "records", "authority")

    def __init__(self, status: LookupStatus,
                 records: Optional[List[ResourceRecord]] = None,
                 authority: Optional[List[ResourceRecord]] = None) -> None:
        self.status = status
        self.records = records or []
        self.authority = authority or []

    def __repr__(self) -> str:
        return (f"LookupResult({self.status.value}, "
                f"{len(self.records)} answers, {len(self.authority)} authority)")


class Zone:
    """One authoritative zone: an origin plus a node/RRset store."""

    def __init__(self, origin: Name) -> None:
        self.origin = origin
        # name -> rtype -> list of records
        self._nodes: Dict[Name, Dict[RecordType, List[ResourceRecord]]] = {}

    # -- building ------------------------------------------------------------

    def add(self, record: ResourceRecord) -> None:
        """Add one record: in zone, and neither an alias nor a zone cut."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        if record.rtype == RecordType.CNAME or (
                record.rtype == RecordType.NS and record.name != self.origin):
            raise ZoneError(f"{record.rtype.name} at {record.name}: zones "
                            "hold no aliases and no zone cuts")
        node = self._nodes.setdefault(record.name, {})
        node.setdefault(record.rtype, []).append(record)

    def remove(self, record: ResourceRecord) -> bool:
        """Remove one record (matched by owner/type/ttl/rdata).

        Returns True if a record was removed.  Empty nodes are pruned so
        NXDOMAIN semantics stay correct after deletions.
        """
        node = self._nodes.get(record.name)
        if node is None:
            return False
        rrset = node.get(record.rtype)
        if not rrset:
            return False
        for index, existing in enumerate(rrset):
            if existing == record:
                del rrset[index]
                if not rrset:
                    del node[record.rtype]
                if not node:
                    del self._nodes[record.name]
                return True
        return False

    def records(self) -> Iterable[ResourceRecord]:
        """All records in the zone, in arbitrary order."""
        for node in self._nodes.values():
            for rrset in node.values():
                yield from rrset

    @property
    def soa(self) -> Optional[ResourceRecord]:
        node = self._nodes.get(self.origin, {})
        rrset = node.get(RecordType.SOA, [])
        return rrset[0] if rrset else None

    # -- lookup -----------------------------------------------------------------

    def lookup(self, name: Name, rtype: RecordType) -> LookupResult:
        """Authoritative lookup of ``name``/``rtype`` within this zone."""
        if not name.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NXDOMAIN, authority=self._soa_authority())

        node = self._nodes.get(name)
        if node is None:
            if self._has_descendants(name):
                # Empty non-terminal: the name "exists" per RFC 4592.
                return LookupResult(LookupStatus.NODATA,
                                    authority=self._soa_authority())
            return LookupResult(LookupStatus.NXDOMAIN,
                                authority=self._soa_authority())
        return self._answer_from_node(node, rtype)

    def _answer_from_node(self, node: Dict[RecordType, List[ResourceRecord]],
                          rtype: RecordType) -> LookupResult:
        if rtype == RecordType.ANY:
            records = [record for rrset in node.values() for record in rrset]
            if records:
                return LookupResult(LookupStatus.SUCCESS, records=records)
        elif rtype in node:
            return LookupResult(LookupStatus.SUCCESS, records=list(node[rtype]))
        return LookupResult(LookupStatus.NODATA, authority=self._soa_authority())

    def _has_descendants(self, name: Name) -> bool:
        return any(existing != name and existing.is_subdomain_of(name)
                   for existing in self._nodes)

    def _soa_authority(self) -> List[ResourceRecord]:
        soa = self.soa
        return [soa] if soa else []

    def __repr__(self) -> str:
        count = sum(len(rrset) for node in self._nodes.values()
                    for rrset in node.values())
        return f"Zone({self.origin}, {count} records)"

