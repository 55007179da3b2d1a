"""The CDN traffic router (C-DNS) — the Apache Traffic Control analog.

The traffic router is an authoritative DNS server for the CDN's delivery
domain that answers each query with the address of a cache server chosen
for the requesting client:

* **coverage zones** map client (or ECS) networks to the cache group that
  should serve them — the edge group when the router runs inside the MEC,
  wider groups otherwise;
* within a group, **consistent hashing** on the query name pins content to
  caches, concentrating each object on few servers;
* unhealthy caches are skipped; an empty group (or a content filter miss)
  makes the router answer with the **next tier's router**, exactly the
  paper's "C-DNS simply returns the address of another C-DNS running at a
  different CDN tier".
"""

from __future__ import annotations

import functools
import ipaddress
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cdn.allocation import (ConsistentAllocator, HashRing,
                                  check_allocation)
from repro.cdn.cache_server import CacheServer
from repro.dnswire.edns import ClientSubnet
from repro.dnswire.message import Message, ResourceRecord, make_response
from repro.dnswire.name import Name
from repro.dnswire.rdata import A
from repro.dnswire.types import Rcode, RecordType
from repro.netsim.packet import Endpoint
from repro.resolver.server import DnsServer

#: Short answer TTL, typical for CDN routing answers.
DEFAULT_ANSWER_TTL = 30

#: Owner-name prefix of the TXT marker a router attaches when the
#: answered address is *another C-DNS* rather than a cache (the paper's
#: next-tier referral).  Tier-aware clients re-query the answered address
#: when they see it; plain clients ignore the additional record.
REFERRAL_MARKER_LABEL = "_cdns-referral"


def referral_marker(qname: Name, ttl: int) -> ResourceRecord:
    """The TXT additional that tags an answer as a next-tier referral."""
    from repro.dnswire.rdata import TXT
    return ResourceRecord(qname.prepend(REFERRAL_MARKER_LABEL),
                          RecordType.TXT, ttl,
                          TXT.from_string("next-tier-cdns"))


def is_referral(response) -> bool:
    """Whether a router response carries the next-tier referral marker."""
    return any(record.rtype == RecordType.TXT
               and record.name.labels
               and record.name.labels[0] == REFERRAL_MARKER_LABEL.encode()
               for record in response.additionals)


@functools.lru_cache(maxsize=1024)
def _parsed_network(cidr: str) -> Tuple[int, int, int]:
    """``(network, netmask, prefixlen)`` of a CIDR string, as integers.

    Coverage networks are constants of a deployment while
    :meth:`CoverageZone.covers` runs once per zone per routed query, so
    each string is parsed once and matched by mask-and-compare after.
    """
    network = ipaddress.IPv4Network(cidr)
    return (int(network.network_address), int(network.netmask),
            network.prefixlen)


class CoverageZone(NamedTuple):
    """Client networks mapped to the caches that should serve them."""

    name: str
    networks: List[str]  # CIDR strings
    caches: List[CacheServer]

    def covers(self, ip: str) -> Tuple[bool, int]:
        """(matched, matched-prefix-length) for ``ip``."""
        address = int(ipaddress.IPv4Address(ip))
        best = -1
        for cidr in self.networks:
            network, netmask, prefixlen = _parsed_network(cidr)
            if address & netmask == network:
                best = max(best, prefixlen)
        return best >= 0, max(best, 0)


class TrafficRouter(DnsServer):
    """Authoritative C-DNS for ``cdn_domain``."""

    def __init__(self, network, host, cdn_domain: Name,
                 zones: List[CoverageZone],
                 default_zone: Optional[CoverageZone] = None,
                 answer_ttl: int = DEFAULT_ANSWER_TTL,
                 next_tier: Optional[str] = None,
                 content_available: Optional[Callable[[Name], bool]] = None,
                 ecs_enabled: bool = False,
                 health_check: Optional[Callable[[CacheServer], bool]] = None,
                 allocation: str = "content",
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        check_allocation(allocation)
        #: Traffic-allocation policy.  ``"content"`` (the default, and
        #: the historical behavior) hashes the query name so content
        #: concentrates on few caches.  ``"client"`` hashes the client
        #: address so each user sticks to one cache regardless of
        #: content.  ``"client-bounded"`` is Huang et al.'s consistent
        #: user-traffic allocation: sticky per-client assignment with
        #: bounded loads, so no cache holds more than
        #: ``ceil((1+eps) * clients / caches)`` users.
        self.allocation = allocation
        #: Predicate deciding whether a cache is eligible; defaults to the
        #: ground-truth online flag, or wire in a
        #: :class:`repro.cdn.health.HealthMonitor`'s belief instead.
        self.health_check = health_check or (lambda cache: cache.online)
        self.cdn_domain = cdn_domain
        self.zones = list(zones)
        self.default_zone = default_zone
        self.answer_ttl = answer_ttl
        #: IP of the next-tier C-DNS returned when this tier cannot serve.
        self.next_tier = next_tier
        self.content_available = content_available
        self.ecs_enabled = ecs_enabled
        self._rings = {zone.name: HashRing(zone.caches) for zone in zones}
        if default_zone is not None and default_zone.name not in self._rings:
            self._rings[default_zone.name] = HashRing(default_zone.caches)
        self._allocators: Dict[str, ConsistentAllocator] = {}
        self._caches_by_name: Dict[str, Dict[str, CacheServer]] = {}
        if allocation == "client-bounded":
            for zone in self._all_zones():
                self._install_allocator(zone)
        self.routed = 0
        self.referred_to_next_tier = 0
        self.zone_updates = 0

    def _all_zones(self) -> List[CoverageZone]:
        zones = list(self.zones)
        if (self.default_zone is not None
                and all(zone.name != self.default_zone.name
                        for zone in zones)):
            zones.append(self.default_zone)
        return zones

    def _install_allocator(self, zone: CoverageZone) -> None:
        names = [cache.name for cache in zone.caches]
        existing = self._allocators.get(zone.name)
        if existing is None:
            self._allocators[zone.name] = ConsistentAllocator(names)
        else:
            existing.set_members(names)
        self._caches_by_name[zone.name] = {
            cache.name: cache for cache in zone.caches}

    # -- live reconfiguration ---------------------------------------------------

    def set_zone_caches(self, zone_name: str,
                        caches: List[CacheServer]) -> None:
        """Install a new cache set for a coverage zone, live.

        The dynamic control plane (``repro.control``) calls this when a
        *propagated* zone version changes the endpoint set — the router
        routes on its propagated view, not on orchestrator ground truth,
        which is exactly what makes staleness windows measurable.  The
        consistent-hash ring for the zone is rebuilt in place.
        """
        for index, zone in enumerate(self.zones):
            if zone.name == zone_name:
                updated = zone._replace(caches=list(caches))
                self.zones[index] = updated
                self._rings[zone_name] = HashRing(updated.caches)
                if self.allocation == "client-bounded":
                    self._install_allocator(updated)
                self.zone_updates += 1
                return
        if self.default_zone is not None and self.default_zone.name == zone_name:
            self.default_zone = self.default_zone._replace(caches=list(caches))
            self._rings[zone_name] = HashRing(self.default_zone.caches)
            if self.allocation == "client-bounded":
                self._install_allocator(self.default_zone)
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
        if best is not None:
            return best, best_prefix
        return self.default_zone, 0

    def select_cache(self, qname: Name,
                     client_ip: str) -> Tuple[Optional[CacheServer], int]:
        """The cache for (content, client), plus the ECS scope to stamp."""
        zone, matched_prefix = self.zone_for(client_ip)
        if zone is None:
            return None, 0
        if self.allocation == "client-bounded":
            return self._select_bounded(zone, client_ip), matched_prefix
        ring = self._rings[zone.name]
        key = (str(qname).lower() if self.allocation == "content"
               else client_ip)
        cache = ring.pick(key, predicate=self.health_check)
        return cache, matched_prefix

    def _select_bounded(self, zone: CoverageZone,
                        client_ip: str) -> Optional[CacheServer]:
        allocator = self._allocators[zone.name]
        by_name = self._caches_by_name[zone.name]

        def eligible(name: str) -> bool:
            cache = by_name.get(name)
            return cache is not None and self.health_check(cache)

        chosen = allocator.assign(client_ip, eligible=eligible)
        return by_name.get(chosen) if chosen is not None else None

    # -- query handling ---------------------------------------------------------------

    def handle_query(self, query: Message, client: Endpoint) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(self.cdn_domain):
            return make_response(query, rcode=Rcode.REFUSED)
        if question.rtype not in (RecordType.A, RecordType.ANY):
            # The routing domain only publishes A records here.
            return make_response(query, authoritative=True)

        ecs = query.edns.client_subnet if (self.ecs_enabled and query.edns) \
            else None
        effective_ip = ecs.address if ecs is not None else client.ip

        served_here = (self.content_available is None
                       or self.content_available(question.name))
        cache: Optional[CacheServer] = None
        scope = 0
        if served_here:
            cache, scope = self.select_cache(question.name, effective_ip)

        additionals = []
        if cache is None:
            outcome = ("servfail" if self.next_tier is None
                       else "next-tier-referral")
        else:
            outcome = "routed"
        tel = self.network.telemetry
        if tel is not None:
            # Re-derive the zone for its name only: zone_for is a pure
            # function of static config, so the extra call cannot
            # perturb the simulation.
            zone, _ = self.zone_for(effective_ip)
            tel.tracer.event(
                "cdns.route", "cdn", self.host.name,
                parent=getattr(query, "trace_ctx", None),
                qname=str(question.name), client_ip=effective_ip,
                zone=zone.name if zone is not None else "none",
                cache=cache.name if cache is not None else "none",
                outcome=outcome, ecs=ecs is not None)
            tel.metrics.counter(
                "repro_cdns_decisions_total",
                "traffic-router routing decisions by outcome").inc(
                    router=self.name, outcome=outcome)
        if cache is None:
            if self.next_tier is None:
                return make_response(query, rcode=Rcode.SERVFAIL,
                                     authoritative=True)
            self.referred_to_next_tier += 1
            answer = ResourceRecord(question.name, RecordType.A,
                                    self.answer_ttl, A(self.next_tier))
            additionals.append(referral_marker(question.name,
                                               self.answer_ttl))
        else:
            self.routed += 1
            answer = ResourceRecord(question.name, RecordType.A,
                                    self.answer_ttl, A(cache.endpoint.ip))

        response = make_response(query, authoritative=True, answers=[answer],
                                 additionals=additionals)
        if response.edns is not None and ecs is not None:
            response.edns.options = [
                opt if not isinstance(opt, ClientSubnet)
                else ecs.with_scope(scope)
                for opt in response.edns.options]
        return response
