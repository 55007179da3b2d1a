"""Authoritative DNS server over one or more zones.

Implements the answer-side semantics the reproduction needs: longest-match
zone selection, one authoritative answer (zones hold no aliases or cuts),
NXDOMAIN/NODATA with SOA in the authority section, and
IXFR out of a bounded change journal.  An AXFR request gets no special
case (RFC 5936 asks for TCP, which the fabric does not model): it is
one more type the apex does not hold, so NODATA.  Answers are
the zone's records in zone order: an ECS option in the query is echoed
untouched, and nothing is tailored to the client (the C-DNS that does
tailor is :class:`repro.cdn.router.TrafficRouter`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dnswire.message import Message, make_response
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.dnswire.zone import LookupStatus, Zone
from repro.netsim.packet import Endpoint
from repro.resolver.server import DnsServer


class AuthoritativeServer(DnsServer):
    """Serves the zones it hosts; refuses everything else."""

    def __init__(self, network, host, zones: Iterable[Zone],
                 journal_depth: Optional[int] = None, **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        self.zones = {zone.origin: zone for zone in zones}
        self.ixfr_served = 0
        #: IXFR requests answered with a full AXFR-style payload because
        #: the client's serial was not in the journal.
        self.ixfr_axfr_fallbacks = 0
        # Change history so updates can be served incrementally (RFC 1995),
        # ``journal_depth`` versions deep; a server without one answers
        # every out-of-date IXFR with the full AXFR-style payload.
        from repro.resolver.xfr import ZoneJournal
        self.journal = (None if journal_depth is None
                        else ZoneJournal(journal_depth))

    def add_zone(self, zone: Zone) -> None:
        """Host (or replace) a zone; replacements are journalled for IXFR."""
        old = self.zones.get(zone.origin)
        if self.journal is not None and old is not None \
                and old.soa is not None and zone.soa is not None:
            self.journal.record(zone.origin, old, zone)
        self.zones[zone.origin] = zone

    def find_zone(self, qname: Name) -> Optional[Zone]:
        """The hosted zone with the longest origin matching ``qname``."""
        best: Optional[Zone] = None
        for origin, zone in self.zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    # -- query handling --------------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint,
                     trace) -> Message:
        question = query.question
        if question.rtype == RecordType.IXFR:
            return self._handle_ixfr(query)
        zone = self.find_zone(question.name)
        if zone is None:
            return make_response(query, rcode=Rcode.REFUSED)

        result = zone.lookup(question.name, question.rtype)
        rcode = (Rcode.NXDOMAIN if result.status == LookupStatus.NXDOMAIN
                 else Rcode.NOERROR)
        return make_response(query, rcode=rcode, authoritative=True,
                             answers=result.records,
                             authorities=result.authority)

    def _handle_ixfr(self, query: Message) -> Message:
        """Incremental transfer (RFC 1995): diffs, or AXFR fallback.

        The client's current serial rides in the request's authority
        section; an unknown serial (no journal, or history rotated
        away) falls back to a full AXFR-style answer, and a current
        serial gets the bare SOA.
        """
        from repro.dnswire.rdata import SOA as SoaRdata
        from repro.resolver.xfr import (axfr_response_records,
                                        ixfr_response_records)
        zone = self.zones.get(query.question.name)
        if zone is None or zone.soa is None:
            return make_response(query, rcode=Rcode.NOTAUTH)
        client_serial = None
        for record in query.authorities:
            if record.rtype == RecordType.SOA \
                    and isinstance(record.rdata, SoaRdata):
                client_serial = record.rdata.serial
        self.ixfr_served += 1
        our_serial = zone.soa.rdata.serial  # type: ignore[attr-defined]
        if client_serial == our_serial:
            return make_response(query, authoritative=True,
                                 answers=[zone.soa])
        deltas = (self.journal.deltas_since(zone.origin, client_serial)
                  if self.journal is not None and client_serial is not None
                  else None)
        if deltas:
            answers = ixfr_response_records(zone, deltas)
        else:
            self.ixfr_axfr_fallbacks += 1
            answers = axfr_response_records(zone)
        return make_response(query, authoritative=True, answers=answers)
