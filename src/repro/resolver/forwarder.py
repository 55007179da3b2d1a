"""Forwarding resolver: a cache in front of upstream resolvers.

This models the carrier or public resolver front-ends that simply
forward to an upstream recursive farm.  The paper's §4 *stub domain*
(a sub-domain sent to a dedicated upstream, the C-DNS) is the CoreDNS
L-DNS's: :class:`repro.mec.coredns.StubDomainPlugin`.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.dnswire.message import Message, make_response, mark_stale
from repro.dnswire.types import Rcode
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache, negative_ttl
from repro.resolver.server import DnsServer

#: One shot per upstream, in ms, before trying the next.
UPSTREAM_TIMEOUT_MS = 2000.0


class ForwardingResolver(DnsServer):
    """Caches locally; otherwise forwards to each upstream in turn.

    Each upstream gets one shot of ``UPSTREAM_TIMEOUT_MS``; retrying is
    the client's business (its :class:`~repro.resolver.retry.RetryPolicy`).
    When every upstream fails and the cache was built with
    ``serve_stale``, an expired entry is served (marked with the RFC
    8914 stale-answer option) before admitting SERVFAIL — RFC 8767's
    "stale bread is better than no bread" trade, which §3 of the paper
    needs for MEC DNS outages.
    """

    def __init__(self, network, host, upstreams: List[Endpoint],
                 cache: Optional[DnsCache] = None, **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        if not upstreams:
            raise ValueError("forwarding resolver needs at least one upstream")
        self.upstreams = list(upstreams)
        self.cache = cache if cache is not None else DnsCache()
        self.forwarded = 0
        self.served_from_cache = 0
        self.stale_served = 0

    def handle_query(self, query: Message, client: Endpoint,
                     trace) -> Generator:
        question = query.question
        now = self.network.sim.now
        tel = self.network.telemetry
        cached = self.cache.get(question.name, question.rtype, now)
        if tel is not None:
            tel.tracer.event("ldns.cache-lookup", "resolver", self.host.name,
                             parent=trace, outcome=cached.outcome.name,
                             qname=str(question.name))
            tel.metrics.counter("repro_ldns_cache_lookups_total",
                                "L-DNS cache probes by outcome").inc(
                                    server=self.name,
                                    outcome=cached.outcome.name)
        if cached.outcome == CacheOutcome.HIT:
            self.served_from_cache += 1
            return make_response(query, recursion_available=True,
                                 answers=cached.records)
        if cached.outcome == CacheOutcome.NEGATIVE_NXDOMAIN:
            self.served_from_cache += 1
            return make_response(query, rcode=Rcode.NXDOMAIN,
                                 recursion_available=True)
        if cached.outcome == CacheOutcome.NEGATIVE_NODATA:
            self.served_from_cache += 1
            return make_response(query, recursion_available=True)

        for upstream in self.upstreams:
            self.forwarded += 1
            response = yield from self.forward(
                query, upstream, UPSTREAM_TIMEOUT_MS, forward_ecs=True,
                ctx=trace)
            if response is None:
                continue
            self._cache_response(question, response)
            return make_response(query, rcode=response.rcode,
                                 recursion_available=True,
                                 answers=response.answers,
                                 authorities=response.authorities,
                                 additionals=response.additionals)
        if self.cache.serve_stale:
            stale = self.cache.get_stale(question.name, question.rtype,
                                         self.network.sim.now)
            if stale.outcome == CacheOutcome.HIT:
                self.stale_served += 1
                if tel is not None:
                    tel.tracer.event("ldns.serve-stale", "resolver",
                                     self.host.name, parent=trace,
                                     qname=str(question.name))
                    tel.metrics.counter(
                        "repro_ldns_stale_served_total",
                        "RFC 8767 stale answers served").inc(
                            server=self.name)
                reply = make_response(query, recursion_available=True,
                                      answers=stale.records)
                if stale.stale:
                    mark_stale(reply)
                return reply
        return make_response(query, rcode=Rcode.SERVFAIL,
                             recursion_available=True)

    def _cache_response(self, question, response: Message) -> None:
        now = self.network.sim.now
        if response.rcode == Rcode.NOERROR and response.answers:
            self.cache.put_records(response.answers, now)
        elif response.rcode == Rcode.NXDOMAIN:
            self.cache.put_negative(question.name, question.rtype,
                                    CacheOutcome.NEGATIVE_NXDOMAIN,
                                    negative_ttl(response), now)
        elif response.rcode == Rcode.NOERROR:
            self.cache.put_negative(question.name, question.rtype,
                                    CacheOutcome.NEGATIVE_NODATA,
                                    negative_ttl(response), now)
