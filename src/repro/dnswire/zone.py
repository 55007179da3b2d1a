"""Zone data with authoritative lookup semantics and a master-file parser.

A :class:`Zone` holds the records of one authoritative zone and implements
the lookup algorithm an authoritative server needs: exact match, CNAME
interposition, wildcard synthesis (RFC 1034 §4.3.2), delegation detection,
and the NXDOMAIN / NODATA distinction.

The master-file parser covers the subset of RFC 1035 §5 the reproduction
uses: ``$ORIGIN``, ``$TTL``, relative and absolute names, ``@``, repeated
owner names, parenthesised record data (for SOA), and ``;`` comments.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dnswire.name import Name, derelativize
from repro.dnswire.message import ResourceRecord
from repro.dnswire.rdata import CNAME, rdata_class_for
from repro.dnswire.types import RecordClass, RecordType
from repro.errors import ZoneError

DEFAULT_TTL = 300

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

    def names(self) -> Iterable[Name]:
        """All owner names with data in this zone."""
        return self._nodes.keys()

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


# ---------------------------------------------------------------------------
# Master file parsing
# ---------------------------------------------------------------------------

def _tokenise(text: str) -> List[List[str]]:
    """Split master-file text into logical lines of tokens.

    Handles ``;`` comments, quoted strings, and ``( ... )`` continuation
    across physical lines.
    """
    logical_lines: List[List[str]] = []
    current: List[str] = []
    depth = 0
    starts_with_space = False
    for raw_line in text.splitlines():
        tokens, line_depth = _tokenise_line(raw_line)
        if depth == 0:
            if not tokens:
                continue
            starts_with_space = raw_line[:1] in (" ", "\t")
            current = tokens
        else:
            current.extend(tokens)
        depth += line_depth
        if depth < 0:
            raise ZoneError("unbalanced ')' in master file")
        if depth == 0:
            if starts_with_space:
                current.insert(0, "")  # marker: inherit previous owner
            logical_lines.append(current)
            current = []
    if depth != 0:
        raise ZoneError("unbalanced '(' in master file")
    return logical_lines


def _tokenise_line(line: str) -> Tuple[List[str], int]:
    tokens: List[str] = []
    depth_delta = 0
    index = 0
    length = len(line)
    while index < length:
        char = line[index]
        if char == ";":
            break
        if char in " \t":
            index += 1
            continue
        if char == "(":
            depth_delta += 1
            index += 1
            continue
        if char == ")":
            depth_delta -= 1
            index += 1
            continue
        if char == '"':
            end = line.find('"', index + 1)
            if end == -1:
                raise ZoneError(f"unterminated quote in line: {line!r}")
            tokens.append(line[index:end + 1])
            index = end + 1
            continue
        end = index
        while end < length and line[end] not in ' \t;()"':
            end += 1
        tokens.append(line[index:end])
        index = end
    return tokens, depth_delta


def parse_master_file(text: str, origin: Optional[Name] = None) -> Zone:
    """Parse master-file text into a :class:`Zone`.

    ``origin`` seeds ``$ORIGIN``; the file may override it.  The zone's
    origin is the first origin in effect when a record is added.
    """
    current_origin = origin
    default_ttl = DEFAULT_TTL
    zone: Optional[Zone] = None
    previous_owner: Optional[Name] = None

    for tokens in _tokenise(text):
        if tokens and tokens[0] == "$ORIGIN":
            current_origin = Name(tokens[1])
            continue
        if tokens and tokens[0] == "$TTL":
            default_ttl = _parse_ttl(tokens[1])
            continue
        if current_origin is None:
            raise ZoneError("record before any $ORIGIN and no default origin")
        if zone is None:
            zone = Zone(current_origin)

        if tokens[0] == "":
            if previous_owner is None:
                raise ZoneError("continuation line before any owner name")
            owner = previous_owner
            rest = tokens[1:]
        else:
            owner = derelativize(tokens[0], current_origin)
            rest = tokens[1:]
        previous_owner = owner

        ttl = default_ttl
        rclass = RecordClass.IN
        index = 0
        while index < len(rest):
            token = rest[index]
            if token.upper() in ("IN", "CH", "HS"):
                rclass = RecordClass.from_text(token)
                index += 1
            elif token and (token.isdigit() or _looks_like_ttl(token)):
                ttl = _parse_ttl(token)
                index += 1
            else:
                break
        if index >= len(rest):
            raise ZoneError(f"record for {owner} has no type")
        rtype = RecordType.from_text(rest[index])
        rdata_tokens = rest[index + 1:]
        rdata_cls = rdata_class_for(rtype)
        rdata = rdata_cls.from_text(rdata_tokens, current_origin)
        zone.add(ResourceRecord(owner, rtype, ttl, rdata, rclass))

    if zone is None:
        raise ZoneError("master file contained no records")
    return zone


_TTL_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _looks_like_ttl(token: str) -> bool:
    return token[:-1].isdigit() and token[-1].lower() in _TTL_UNITS


def _parse_ttl(token: str) -> int:
    if token.isdigit():
        return int(token)
    if _looks_like_ttl(token):
        return int(token[:-1]) * _TTL_UNITS[token[-1].lower()]
    raise ZoneError(f"bad TTL {token!r}")
