"""Iterative (recursive-resolver) DNS resolution with caching.

This is the L-DNS role in the paper's Figure 1: it receives a stub query,
walks the delegation tree from the root hints (root → TLD → authoritative
→ CDN router), follows CNAMEs and referrals, and caches everything it
learns — positively and negatively — within the bailiwick of the zone cut
it was talking to.

It sends no ECS option upstream: in the paper's deployments the
resolver→CDN ECS leg is the CoreDNS L-DNS's (``ecs_inject``), so every
answer this resolver caches is cached for all of its clients.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.dnswire.message import Message, ResourceRecord, make_query, make_response
from repro.dnswire.name import Name, ROOT
from repro.dnswire.types import Rcode, RecordType
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache, negative_ttl
from repro.resolver.server import UPSTREAM_TIMEOUT_MS, DnsServer

MAX_CNAME_CHAIN = 8
MAX_REFERRALS = 16
MAX_NS_RESOLUTION_DEPTH = 4


class RecursiveResolver(DnsServer):
    """A caching iterative resolver seeded with root hints."""

    def __init__(self, network, host, root_hints: List[Tuple[Name, str]],
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        if not root_hints:
            raise ValueError("recursive resolver needs at least one root hint")
        self.root_hints = list(root_hints)
        self.cache = DnsCache()
        self.upstream_queries_sent = 0

    # -- entry point -----------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint,
                     trace) -> Generator:
        question = query.question
        rcode, answers = yield from self._resolve(
            question.name, question.rtype, depth=0)
        response = make_response(query, rcode=rcode,
                                 recursion_available=True, answers=answers)
        return response

    # -- CNAME-chasing resolution -------------------------------------------------

    def _resolve(self, qname: Name, rtype: RecordType,
                 depth: int) -> Generator:
        """Process returning ``(rcode, answer_records)``."""
        answers: List[ResourceRecord] = []
        current = qname
        for _ in range(MAX_CNAME_CHAIN):
            outcome, records = yield from self._resolve_rrset(
                current, rtype, depth)
            if outcome == "answer":
                answers.extend(records)
                return Rcode.NOERROR, answers
            if outcome == "cname":
                answers.extend(records)
                target = records[-1].rdata.target  # type: ignore[attr-defined]
                current = target
                continue
            if outcome == "nxdomain":
                return Rcode.NXDOMAIN, answers
            if outcome == "nodata":
                return Rcode.NOERROR, answers
            return Rcode.SERVFAIL, answers
        return Rcode.SERVFAIL, answers  # CNAME chain too long

    # -- single RRset resolution -----------------------------------------------------

    def _resolve_rrset(self, name: Name, rtype: RecordType,
                       depth: int) -> Generator:
        """Process returning ``(outcome, records)`` for one (name, rtype).

        ``outcome`` is one of ``answer``, ``cname``, ``nxdomain``,
        ``nodata``, ``servfail``; a CNAME is reported, not followed.
        """
        now = self.network.sim.now
        cached = self.cache.get(name, rtype, now)
        if cached.outcome == CacheOutcome.HIT:
            return "answer", cached.records
        if cached.outcome == CacheOutcome.NEGATIVE_NXDOMAIN:
            return "nxdomain", []
        if cached.outcome == CacheOutcome.NEGATIVE_NODATA:
            return "nodata", []
        if rtype != RecordType.CNAME:
            cached_cname = self.cache.get(name, RecordType.CNAME, now)
            if cached_cname.outcome == CacheOutcome.HIT:
                return "cname", cached_cname.records

        zone_cut, server_names, server_addresses = self._closest_known_servers(name)
        for _ in range(MAX_REFERRALS):
            if not server_addresses:
                server_addresses = yield from self._addresses_for_servers(
                    server_names, depth)
            if not server_addresses:
                return "servfail", []
            response = yield from self._query_any_server(
                name, rtype, server_addresses)
            if response is None:
                return "servfail", []
            now = self.network.sim.now
            self._cache_response(response, zone_cut, now)

            if response.rcode == Rcode.NXDOMAIN:
                ttl = negative_ttl(response)
                self.cache.put_negative(name, rtype,
                                        CacheOutcome.NEGATIVE_NXDOMAIN, ttl, now)
                return "nxdomain", []
            if response.rcode != Rcode.NOERROR:
                return "servfail", []

            direct = [record for record in response.answers
                      if record.name == name and record.rtype == rtype]
            if direct:
                # Return the full answer section so CNAME chains assembled
                # by the upstream authoritative server stay intact.
                return "answer", list(response.answers)
            cname = [record for record in response.answers
                     if record.name == name and record.rtype == RecordType.CNAME]
            if cname:
                return "cname", cname

            referral_ns = [record for record in response.authorities
                           if record.rtype == RecordType.NS]
            if referral_ns and not response.flags.aa:
                zone_cut = referral_ns[0].name
                server_names = [record.rdata.target  # type: ignore[attr-defined]
                                for record in referral_ns]
                server_addresses = _glue_addresses(response, server_names)
                continue

            ttl = negative_ttl(response)
            self.cache.put_negative(name, rtype,
                                    CacheOutcome.NEGATIVE_NODATA, ttl, now)
            return "nodata", []
        return "servfail", []

    # -- server selection ---------------------------------------------------------------

    def _closest_known_servers(
            self, name: Name) -> Tuple[Name, List[Name], List[str]]:
        """Deepest zone cut we have cached NS (with addresses) for."""
        now = self.network.sim.now
        current = name
        while True:
            ns_cached = self.cache.get(current, RecordType.NS, now)
            if ns_cached.outcome == CacheOutcome.HIT:
                ns_names = [record.rdata.target  # type: ignore[attr-defined]
                            for record in ns_cached.records]
                addresses = []
                for ns_name in ns_names:
                    addresses.extend(self.cache.peek_addresses(ns_name, now))
                if addresses:
                    return current, ns_names, addresses
            if current.is_root:
                break
            current = current.parent()
        return ROOT, [hint for hint, _ in self.root_hints], \
            [address for _, address in self.root_hints]

    def _addresses_for_servers(self, server_names: List[Name],
                               depth: int) -> Generator:
        """Resolve NS names that arrived without glue (depth-limited)."""
        if depth >= MAX_NS_RESOLUTION_DEPTH:
            return []
        addresses: List[str] = []
        for ns_name in server_names:
            cached = self.cache.peek_addresses(ns_name, self.network.sim.now)
            if cached:
                addresses.extend(cached)
                continue
            rcode, records = yield from self._resolve(
                ns_name, RecordType.A, depth + 1)
            if rcode == Rcode.NOERROR:
                addresses.extend(
                    record.rdata.address for record in records  # type: ignore[attr-defined]
                    if record.rtype == RecordType.A)
            if addresses:
                break  # one reachable server is enough to continue
        return addresses

    def _query_any_server(self, name: Name, rtype: RecordType,
                          addresses: List[str]) -> Generator:
        """Try each server address once; return the first response."""
        for address in addresses:
            query = make_query(name, rtype, msg_id=self.allocate_query_id(),
                               recursion_desired=False)
            try:
                self.upstream_queries_sent += 1
                response = yield from self.query_upstream(
                    query, Endpoint(address, 53), UPSTREAM_TIMEOUT_MS)
            except (QueryTimeout, WireFormatError):
                continue
            return response
        return None

    # -- caching ------------------------------------------------------------------------------

    def _cache_response(self, response: Message, zone_cut: Name,
                        now: float) -> None:
        """Cache in-bailiwick records and the glue for named servers."""
        in_bailiwick = [record for record
                        in (response.answers + response.authorities
                            + response.additionals)
                        if record.name.is_subdomain_of(zone_cut)
                        or (record.rtype == RecordType.A
                            and _is_glue(record, response))]
        self.cache.put_records(in_bailiwick, now)


def _glue_addresses(response: Message, server_names: List[Name]) -> List[str]:
    """Addresses from the additional section for the referral's NS names."""
    wanted = set(server_names)
    return [record.rdata.address  # type: ignore[attr-defined]
            for record in response.additionals
            if record.rtype == RecordType.A and record.name in wanted]


def _is_glue(record: ResourceRecord, response: Message) -> bool:
    """True if ``record`` is an address for an NS named in the response."""
    ns_targets = {rr.rdata.target for rr in
                  response.authorities + response.answers
                  if rr.rtype == RecordType.NS}  # type: ignore[attr-defined]
    return record.name in ns_targets


def root_hints_from(*pairs: Tuple[str, str]) -> List[Tuple[Name, str]]:
    """Convenience: build root hints from (name, ip) text pairs."""
    return [(Name(name), ip) for name, ip in pairs]
