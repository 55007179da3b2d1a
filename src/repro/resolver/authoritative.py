"""Authoritative DNS server over one or more zones.

Implements the answer-side semantics the reproduction needs: longest-match
zone selection, CNAME chasing across hosted zones, wildcard answers,
referrals for delegations, NXDOMAIN/NODATA with SOA in the authority
section, AXFR/IXFR out of a bounded change journal, and an ECS hook
that lets a subclass select answers by client subnet and stamp the
response scope (the zone itself answers untailored, scope 0).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.dnswire.edns import ClientSubnet
from repro.dnswire.message import Message, ResourceRecord, make_response
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.dnswire.zone import LookupStatus, Zone
from repro.netsim.packet import Endpoint
from repro.resolver.server import DnsServer

#: Bound on CNAME indirections followed within one response.
MAX_CNAME_CHAIN = 8


class AuthoritativeServer(DnsServer):
    """Serves the zones it hosts; refuses everything else."""

    def __init__(self, network, host, zones: Iterable[Zone],
                 ecs_enabled: bool = False,
                 rotate_answers: bool = False,
                 journal_depth: Optional[int] = None, **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        self.zones = {zone.origin: zone for zone in zones}
        self.ecs_enabled = ecs_enabled
        #: Round-robin rotation of multi-record answers (poor-man's load
        #: balancing, as BIND's ``rrset-order cyclic``).
        self.rotate_answers = rotate_answers
        self._rotation_counter = 0
        self.axfr_served = 0
        self.ixfr_served = 0
        #: IXFR requests answered with a full AXFR-style payload because
        #: the client's serial had aged out of the bounded journal.
        self.ixfr_axfr_fallbacks = 0
        # Change history so updates can be served incrementally (RFC 1995).
        # ``journal_depth`` bounds it; a secondary whose serial has aged
        # out of the bounded history gets a full AXFR instead.
        from repro.resolver.xfr import DEFAULT_JOURNAL_DEPTH, ZoneJournal
        self.journal = ZoneJournal(depth=(DEFAULT_JOURNAL_DEPTH
                                          if journal_depth is None
                                          else journal_depth))

    def add_zone(self, zone: Zone) -> None:
        """Host (or replace) a zone; replacements are journalled for IXFR."""
        from repro.errors import ZoneError
        old = self.zones.get(zone.origin)
        if old is not None and old.soa is not None and zone.soa is not None:
            try:
                self.journal.record(zone.origin, old, zone)
            except ZoneError:
                pass  # undiffable update; IXFR will fall back to AXFR
        self.zones[zone.origin] = zone

    def find_zone(self, qname: Name) -> Optional[Zone]:
        """The hosted zone with the longest origin matching ``qname``."""
        best: Optional[Zone] = None
        for origin, zone in self.zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    # -- answer selection hook ---------------------------------------------------

    def select_answer(self, qname: Name, rtype: RecordType,
                      records: List[ResourceRecord],
                      ecs: Optional[ClientSubnet],
                      client: Endpoint) -> Tuple[List[ResourceRecord], int]:
        """Choose which records to return and the ECS scope to stamp.

        The default returns everything with scope 0 (answer not tailored);
        ``tests/resolver/test_ecs_scoped_cache.py`` overrides it with a
        per-subnet authority to drive the resolver's scoped cache.
        """
        return records, 0

    # -- query handling --------------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint) -> Message:
        question = query.question
        if question.rtype == RecordType.AXFR:
            return self._handle_axfr(query)
        if question.rtype == RecordType.IXFR:
            return self._handle_ixfr(query)
        zone = self.find_zone(question.name)
        if zone is None:
            return make_response(query, rcode=Rcode.REFUSED)

        ecs = query.edns.client_subnet if (self.ecs_enabled and query.edns) else None
        answers: List[ResourceRecord] = []
        authorities: List[ResourceRecord] = []
        additionals: List[ResourceRecord] = []
        rcode = Rcode.NOERROR
        scope = 0
        authoritative_answer = True

        qname = question.name
        for _ in range(MAX_CNAME_CHAIN):
            result = zone.lookup(qname, question.rtype)
            if result.status == LookupStatus.SUCCESS:
                selected, scope = self.select_answer(
                    qname, question.rtype, result.records, ecs, client)
                if self.rotate_answers and len(selected) > 1:
                    self._rotation_counter += 1
                    pivot = self._rotation_counter % len(selected)
                    selected = selected[pivot:] + selected[:pivot]
                answers.extend(selected)
                break
            if result.status == LookupStatus.CNAME:
                answers.extend(result.records)
                assert result.cname_target is not None
                qname = result.cname_target
                next_zone = self.find_zone(qname)
                if next_zone is None:
                    break  # target is out of our authority; client re-resolves
                zone = next_zone
                continue
            if result.status == LookupStatus.DELEGATION:
                # Referral: not an authoritative answer; carry the glue.
                authorities.extend(result.authority)
                additionals.extend(result.additional)
                authoritative_answer = False
                break
            if result.status == LookupStatus.NXDOMAIN:
                rcode = Rcode.NXDOMAIN
                authorities.extend(result.authority)
                break
            # NODATA
            authorities.extend(result.authority)
            break
        else:
            rcode = Rcode.SERVFAIL  # CNAME loop within our own zones

        response = make_response(query, rcode=rcode,
                                 authoritative=authoritative_answer,
                                 answers=answers, authorities=authorities,
                                 additionals=additionals)
        return self._finish_response(response, ecs, scope)

    def _handle_axfr(self, query: Message) -> Message:
        """Full zone transfer for a hosted zone apex (RFC 5936 shape)."""
        from repro.resolver.xfr import axfr_response_records
        zone = self.zones.get(query.question.name)
        if zone is None:
            return make_response(query, rcode=Rcode.NOTAUTH)
        self.axfr_served += 1
        return make_response(query, authoritative=True,
                             answers=axfr_response_records(zone))

    def _handle_ixfr(self, query: Message) -> Message:
        """Incremental transfer (RFC 1995): diffs, or AXFR fallback.

        The client's current serial rides in the request's authority
        section; an unknown serial (history rotated away) falls back to
        a full AXFR-style answer, and a current serial gets the bare SOA.
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
                  if client_serial is not None else None)
        if deltas:
            answers = ixfr_response_records(zone, deltas)
        else:
            self.ixfr_axfr_fallbacks += 1
            answers = axfr_response_records(zone)
        return make_response(query, authoritative=True, answers=answers)

    def _finish_response(self, response: Message, ecs, scope) -> Message:
        if response.edns is not None and ecs is not None:
            response.edns.options = [
                opt if not isinstance(opt, ClientSubnet) else ecs.with_scope(scope)
                for opt in response.edns.options]
        return response
