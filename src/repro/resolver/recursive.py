"""Iterative (recursive-resolver) DNS resolution with caching.

This is the L-DNS role in the paper's Figure 1: it receives a stub query,
walks the delegation tree from the root hints (root → TLD → authoritative
→ CDN router), follows CNAMEs and referrals, and caches everything it
learns — positively and negatively — within the bailiwick of the zone cut
it was talking to.

ECS (RFC 7871) support: when enabled, the resolver attaches the client's
/24 (or /56 for IPv6) to upstream queries so authoritative servers can
tailor answers; responses whose scope prefix is non-zero are cached per
client subnet, as the RFC requires.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import Message, ResourceRecord, make_query, make_response
from repro.dnswire.name import Name, ROOT
from repro.dnswire.types import Rcode, RecordType
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache, negative_ttl
from repro.resolver.server import DnsServer

MAX_CNAME_CHAIN = 8
MAX_REFERRALS = 16
MAX_NS_RESOLUTION_DEPTH = 4
#: ECS prefixes a resolver advertises for its clients (RFC 7871 defaults).
ECS_V4_PREFIX = 24
ECS_V6_PREFIX = 56


class RecursiveResolver(DnsServer):
    """A caching iterative resolver seeded with root hints."""

    def __init__(self, network, host, root_hints: List[Tuple[Name, str]],
                 upstream_timeout: float = 2000.0,
                 ecs_enabled: bool = False, **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        if not root_hints:
            raise ValueError("recursive resolver needs at least one root hint")
        self.root_hints = list(root_hints)
        self.cache = DnsCache()
        self.upstream_timeout = upstream_timeout
        self.ecs_enabled = ecs_enabled
        # (name, rtype, subnet) -> (records, expires_at); RFC 7871 §7.3.1.
        self._ecs_cache: Dict[Tuple[Name, RecordType, str],
                              Tuple[List[ResourceRecord], float]] = {}
        self.upstream_queries_sent = 0

    # -- entry point -----------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint) -> Generator:
        question = query.question
        ecs = self._effective_ecs(query, client)
        rcode, answers = yield from self._resolve(
            question.name, question.rtype, ecs, depth=0)
        response = make_response(query, rcode=rcode,
                                 recursion_available=True, answers=answers)
        return response

    def _effective_ecs(self, query: Message,
                       client: Endpoint) -> Optional[ClientSubnet]:
        if not self.ecs_enabled:
            return None
        if query.edns is not None and query.edns.client_subnet is not None:
            return query.edns.client_subnet
        prefix = ECS_V6_PREFIX if ":" in client.ip else ECS_V4_PREFIX
        return ClientSubnet(client.ip, prefix)

    # -- CNAME-chasing resolution -------------------------------------------------

    def _resolve(self, qname: Name, rtype: RecordType,
                 ecs: Optional[ClientSubnet],
                 depth: int) -> Generator:
        """Process returning ``(rcode, answer_records)``."""
        answers: List[ResourceRecord] = []
        current = qname
        for _ in range(MAX_CNAME_CHAIN):
            outcome, records = yield from self._resolve_rrset(
                current, rtype, ecs, depth)
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
                       ecs: Optional[ClientSubnet],
                       depth: int) -> Generator:
        """Process returning ``(outcome, records)`` for one (name, rtype).

        ``outcome`` is one of ``answer``, ``cname``, ``nxdomain``,
        ``nodata``, ``servfail``; a CNAME is reported, not followed.
        """
        now = self.network.sim.now
        if ecs is not None:
            scoped = self._ecs_cache_get(name, rtype, ecs, now)
            if scoped is not None:
                return "answer", scoped
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
                name, rtype, server_addresses, ecs)
            if response is None:
                return "servfail", []
            now = self.network.sim.now
            self._cache_response(response, zone_cut, ecs, now)

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
                ns_name, RecordType.A, None, depth + 1)
            if rcode == Rcode.NOERROR:
                addresses.extend(
                    record.rdata.address for record in records  # type: ignore[attr-defined]
                    if record.rtype == RecordType.A)
            if addresses:
                break  # one reachable server is enough to continue
        return addresses

    def _query_any_server(self, name: Name, rtype: RecordType,
                          addresses: List[str],
                          ecs: Optional[ClientSubnet]) -> Generator:
        """Try each server address once; return the first response."""
        for address in addresses:
            query = make_query(name, rtype, msg_id=self.allocate_query_id(),
                               recursion_desired=False)
            if ecs is not None:
                query.edns = Edns(options=[ecs])
            try:
                self.upstream_queries_sent += 1
                response = yield from self.query_upstream(
                    query, Endpoint(address, 53), self.upstream_timeout)
            except (QueryTimeout, WireFormatError):
                continue
            return response
        return None

    # -- caching ------------------------------------------------------------------------------

    def _cache_response(self, response: Message, zone_cut: Name,
                        ecs: Optional[ClientSubnet], now: float) -> None:
        """Cache in-bailiwick records; honour ECS scope on answers."""
        response_scope = 0
        if response.edns is not None and response.edns.client_subnet is not None:
            response_scope = response.edns.client_subnet.scope_prefix
        scoped_answer = ecs is not None and response_scope > 0

        in_bailiwick = [record for record
                        in (response.answers + response.authorities
                            + response.additionals)
                        if record.name.is_subdomain_of(zone_cut)
                        or (record.rtype == RecordType.A
                            and _is_glue(record, response))]
        if scoped_answer:
            answers = [record for record in response.answers
                       if record.name.is_subdomain_of(zone_cut)]
            self._ecs_cache_put(answers, ecs, now)
            in_bailiwick = [record for record in in_bailiwick
                            if record not in answers]
        self.cache.put_records(in_bailiwick, now)

    def _ecs_cache_put(self, records: List[ResourceRecord],
                       ecs: ClientSubnet, now: float) -> None:
        if not records:
            return
        subnet = str(ecs.network())
        by_key: Dict[Tuple[Name, RecordType], List[ResourceRecord]] = {}
        for record in records:
            by_key.setdefault((record.name, record.rtype), []).append(record)
        for (name, rtype), rrset in by_key.items():
            ttl = min(record.ttl for record in rrset)
            self._ecs_cache[(name, rtype, subnet)] = (rrset, now + ttl * 1000.0)

    def _ecs_cache_get(self, name: Name, rtype: RecordType,
                       ecs: ClientSubnet,
                       now: float) -> Optional[List[ResourceRecord]]:
        key = (name, rtype, str(ecs.network()))
        entry = self._ecs_cache.get(key)
        if entry is None:
            return None
        records, expires_at = entry
        if expires_at <= now:
            del self._ecs_cache[key]
            return None
        remaining = int((expires_at - now) / 1000.0)
        return [record.with_ttl(remaining) for record in records]


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
