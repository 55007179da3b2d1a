"""The CDN traffic router (C-DNS) — the Apache Traffic Control analog.

The traffic router is an authoritative DNS server for the CDN's delivery
domain that answers each query with the address of a cache server chosen
for the requesting client:

* **coverage zones** map client (or ECS) networks to the cache group that
  should serve them — the edge group when the router runs inside the MEC,
  wider groups otherwise; a catch-all is a ``0.0.0.0/0`` zone;
* within a group, **consistent hashing** on the query name pins content to
  caches, concentrating each object on few servers;
* caches that are not ``online`` are skipped; a client no zone covers, or
  whose group has no online cache, gets SERVFAIL.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cdn.allocation import HashRing
from repro.cdn.cache_server import CacheServer
from repro.dnswire.edns import ClientSubnet
from repro.dnswire.message import Message, ResourceRecord, make_response
from repro.dnswire.name import Name
from repro.dnswire.rdata import A
from repro.dnswire.types import Rcode, RecordType
from repro.netsim.packet import Endpoint, parse_ipv4, parse_ipv4_network
from repro.resolver.server import DnsServer

#: Short answer TTL, typical for CDN routing answers.
DEFAULT_ANSWER_TTL = 30

class CoverageZone(NamedTuple):
    """Client networks mapped to the caches that should serve them.

    The ring is the zone's one cache set: it is built once, from the
    caches the zone starts with, and only
    :meth:`TrafficRouter.set_zone_caches` replaces it.
    """

    name: str
    networks: List[str]  # CIDR strings
    ring: HashRing

    def covers(self, ip: str) -> Tuple[bool, int]:
        """(matched, matched-prefix-length) for ``ip``.

        Networks and the address are each parsed once per distinct string
        (:func:`~repro.netsim.packet.parse_ipv4`) and matched by
        mask-and-compare after: this runs once per zone per routed query.
        """
        address = parse_ipv4(ip)
        best = -1
        for cidr in self.networks:
            network, netmask, prefixlen = parse_ipv4_network(cidr)
            if address & netmask == network:
                best = max(best, prefixlen)
        return best >= 0, max(best, 0)


def _online(cache: CacheServer) -> bool:
    return cache.online


class TrafficRouter(DnsServer):
    """Authoritative C-DNS for ``cdn_domain``."""

    def __init__(self, network, host, cdn_domain: Name,
                 zones: List[CoverageZone],
                 answer_ttl: int = DEFAULT_ANSWER_TTL,
                 ecs_enabled: bool = False,
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        self.cdn_domain = cdn_domain
        self.zones = list(zones)
        self.answer_ttl = answer_ttl
        self.ecs_enabled = ecs_enabled
        #: Each cache's answer rdata, built on its first routed answer:
        #: rdata is immutable once built, so every answer can share it.
        self._rdata: Dict[CacheServer, A] = {}
        self.routed = 0
        self.zone_updates = 0

    # -- live reconfiguration ---------------------------------------------------

    def set_zone_caches(self, zone_name: str,
                        caches: List[CacheServer]) -> None:
        """Install a new cache set for a coverage zone, live.

        The dynamic control plane (``repro.control``) calls this when a
        *propagated* zone version changes the endpoint set — the router
        routes on its propagated view, not on orchestrator ground truth,
        which is exactly what makes staleness windows measurable.  The
        zone gets a new consistent-hash ring over ``caches``.
        """
        for index, zone in enumerate(self.zones):
            if zone.name == zone_name:
                self.zones[index] = zone._replace(ring=HashRing(caches))
                self.zone_updates += 1
                return
        raise ValueError(f"no coverage zone named {zone_name!r}")

    # -- selection --------------------------------------------------------------

    def zone_for(self, client_ip: str) -> Tuple[Optional[CoverageZone], int]:
        """Longest-prefix coverage-zone match for ``client_ip``."""
        best: Optional[CoverageZone] = None
        best_prefix = 0
        for zone in self.zones:
            matched, prefix = zone.covers(client_ip)
            if matched and (best is None or prefix > best_prefix):
                best, best_prefix = zone, prefix
        return best, best_prefix

    def select_cache(self, qname: Name,
                     client_ip: str) -> Tuple[Optional[CacheServer], int]:
        """The cache for (content, client), plus the ECS scope to stamp.

        The client's zone picks the ring; the content name picks the cache
        on it, so each object concentrates on few servers.
        """
        zone, matched_prefix = self.zone_for(client_ip)
        if zone is None:
            return None, 0
        cache = zone.ring.pick(str(qname).lower(), predicate=_online)
        return cache, matched_prefix

    # -- query handling ---------------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint,
                     trace) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(self.cdn_domain):
            return make_response(query, rcode=Rcode.REFUSED)
        if question.rtype not in (RecordType.A, RecordType.ANY):
            # The routing domain only publishes A records here.
            return make_response(query, authoritative=True)

        ecs = query.edns.client_subnet if (self.ecs_enabled and query.edns) \
            else None
        effective_ip = ecs.address if ecs is not None else client.ip

        cache, scope = self.select_cache(question.name, effective_ip)

        outcome = "servfail" if cache is None else "routed"
        tel = self.network.telemetry
        if tel is not None:
            # Re-derive the zone for its name only: zone_for is a pure
            # function of static config, so the extra call cannot
            # perturb the simulation.
            zone, _ = self.zone_for(effective_ip)
            tel.tracer.event(
                "cdns.route", "cdn", self.host.name,
                parent=trace,
                qname=str(question.name), client_ip=effective_ip,
                zone=zone.name if zone is not None else "none",
                cache=cache.name if cache is not None else "none",
                outcome=outcome, ecs=ecs is not None)
            tel.metrics.counter(
                "repro_cdns_decisions_total",
                "traffic-router routing decisions by outcome").inc(
                    router=self.name, outcome=outcome)
        if cache is None:
            return make_response(query, rcode=Rcode.SERVFAIL,
                                 authoritative=True)
        self.routed += 1
        rdata = self._rdata.get(cache)
        if rdata is None:
            rdata = self._rdata[cache] = A(cache.endpoint.ip)
        answer = ResourceRecord(question.name, RecordType.A,
                                self.answer_ttl, rdata)

        response = make_response(query, authoritative=True, answers=[answer])
        if response.edns is not None and ecs is not None:
            response.edns.options = [
                opt if not isinstance(opt, ClientSubnet)
                else ecs.with_scope(scope)
                for opt in response.edns.options]
        return response
