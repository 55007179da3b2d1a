"""Zone data with authoritative lookup semantics.

A :class:`Zone` holds the records of one authoritative zone and implements
the lookup algorithm an authoritative server needs: exact match, CNAME
interposition, wildcard synthesis (RFC 1034 §4.3.2), delegation detection,
and the NXDOMAIN / NODATA distinction.  Zones are built in code
(:meth:`Zone.add`).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from repro.dnswire.name import Name
from repro.dnswire.message import ResourceRecord
from repro.dnswire.rdata import CNAME
from repro.dnswire.types import RecordType
from repro.errors import ZoneError

#: Key for the per-node RRset map.
_RRsetKey = RecordType


class LookupStatus(enum.Enum):
    """Outcome categories of an authoritative lookup."""

    SUCCESS = "success"          # answer records present
    CNAME = "cname"              # alias found; chase the target
    DELEGATION = "delegation"    # name is below a zone cut; referral
    NXDOMAIN = "nxdomain"        # name does not exist in the zone
    NODATA = "nodata"            # name exists; no records of this type


class LookupResult:
    """The outcome of :meth:`Zone.lookup`."""

    __slots__ = ("status", "records", "authority", "additional", "cname_target")

    def __init__(self, status: LookupStatus,
                 records: Optional[List[ResourceRecord]] = None,
                 authority: Optional[List[ResourceRecord]] = None,
                 additional: Optional[List[ResourceRecord]] = None,
                 cname_target: Optional[Name] = None) -> None:
        self.status = status
        self.records = records or []
        self.authority = authority or []
        self.additional = additional or []
        self.cname_target = cname_target

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
        """Add one record, enforcing in-zone ownership and CNAME exclusivity."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        node = self._nodes.setdefault(record.name, {})
        if record.rtype == RecordType.CNAME and any(
                rtype != RecordType.CNAME for rtype in node):
            raise ZoneError(f"CNAME at {record.name} conflicts with other data")
        if record.rtype != RecordType.CNAME and RecordType.CNAME in node:
            raise ZoneError(f"{record.name} already holds a CNAME")
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

        delegation = self._find_delegation(name)
        if delegation is not None:
            return LookupResult(LookupStatus.DELEGATION, authority=delegation,
                                additional=self._glue_for(delegation))

        node = self._nodes.get(name)
        if node is None:
            wildcard = self._find_wildcard(name)
            if wildcard is None:
                if self._has_descendants(name):
                    # Empty non-terminal: the name "exists" per RFC 4592.
                    return LookupResult(LookupStatus.NODATA,
                                        authority=self._soa_authority())
                return LookupResult(LookupStatus.NXDOMAIN,
                                    authority=self._soa_authority())
            node = wildcard
            return self._answer_from_node(node, rtype, synthesize_owner=name)
        return self._answer_from_node(node, rtype)

    def _answer_from_node(self, node: Dict[RecordType, List[ResourceRecord]],
                          rtype: RecordType,
                          synthesize_owner: Optional[Name] = None) -> LookupResult:
        def materialise(records: List[ResourceRecord]) -> List[ResourceRecord]:
            if synthesize_owner is None:
                return list(records)
            return [ResourceRecord(synthesize_owner, record.rtype, record.ttl,
                                   record.rdata, record.rclass)
                    for record in records]

        if RecordType.CNAME in node and rtype not in (RecordType.CNAME, RecordType.ANY):
            records = materialise(node[RecordType.CNAME])
            target = records[0].rdata.target  # type: ignore[attr-defined]
            return LookupResult(LookupStatus.CNAME, records=records,
                                cname_target=target)
        if rtype == RecordType.ANY:
            records = [record for rrset in node.values() for record in materialise(rrset)]
            if records:
                return LookupResult(LookupStatus.SUCCESS, records=records)
        elif rtype in node:
            return LookupResult(LookupStatus.SUCCESS, records=materialise(node[rtype]))
        return LookupResult(LookupStatus.NODATA, authority=self._soa_authority())

    def _find_delegation(self, name: Name) -> Optional[List[ResourceRecord]]:
        """NS records at a zone cut strictly between origin and ``name``."""
        # Walk ancestors from just below the origin down to the parent of name.
        relative = name.relativize(self.origin)
        for depth in range(len(relative) - 1, 0, -1):
            _, ancestor = name.split_prefix(len(relative) - depth)
            node = self._nodes.get(ancestor)
            if node and RecordType.NS in node and ancestor != self.origin:
                return list(node[RecordType.NS])
        # The name itself may be a delegated child (query at the cut point).
        node = self._nodes.get(name)
        if (node and RecordType.NS in node and name != self.origin
                and RecordType.SOA not in node):
            return list(node[RecordType.NS])
        return None

    def _glue_for(self, ns_records: List[ResourceRecord]) -> List[ResourceRecord]:
        """Address records this zone holds for the delegation's NS targets."""
        glue: List[ResourceRecord] = []
        for ns in ns_records:
            target = ns.rdata.target  # type: ignore[attr-defined]
            node = self._nodes.get(target)
            if node is None:
                continue
            for rtype in (RecordType.A, RecordType.AAAA):
                glue.extend(node.get(rtype, []))
        return glue

    def _find_wildcard(self, name: Name) -> Optional[Dict[RecordType, List[ResourceRecord]]]:
        """The closest-enclosing ``*`` node covering ``name``, if any."""
        current = name
        while current != self.origin and not current.is_root:
            candidate = current.parent().prepend("*")
            node = self._nodes.get(candidate)
            if node is not None:
                return node
            current = current.parent()
        return None

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

