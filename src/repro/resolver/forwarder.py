"""Forwarding resolver with stub-domain routing.

This models two things from the paper:

* the carrier or public resolver front-ends that simply forward to an
  upstream recursive farm, and
* the CoreDNS *stub domain* mechanism the prototype configures in §4:
  "we update the configuration of L-DNS with the sub-domain and upstream
  server to ensure that L-DNS redirects queries for this CDN domain to
  C-DNS" — i.e. queries under a configured sub-domain go to a dedicated
  upstream (the ATC Traffic Router) instead of the default path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.dnswire.message import Message, make_response, mark_stale
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache, negative_ttl
from repro.resolver.server import DnsServer


def stub_domain_upstream(domains: Dict[Name, Endpoint],
                         qname: Name) -> Optional[Endpoint]:
    """The upstream of the longest configured domain ``qname`` is under."""
    matches = [domain for domain in domains if qname.is_subdomain_of(domain)]
    return domains[max(matches, key=len)] if matches else None


class ForwardingResolver(DnsServer):
    """Caches locally; otherwise forwards to the matching upstream.

    Each upstream gets one shot of ``upstream_timeout`` ms; retrying is
    the client's business (its :class:`~repro.resolver.retry.RetryPolicy`).
    When every upstream fails and the cache was built with
    ``serve_stale``, an expired entry is served (marked with the RFC
    8914 stale-answer option) before admitting SERVFAIL — RFC 8767's
    "stale bread is better than no bread" trade, which §3 of the paper
    needs for MEC DNS outages.
    """

    def __init__(self, network, host, upstreams: List[Endpoint],
                 stub_domains: Optional[Dict[Name, Endpoint]] = None,
                 cache: Optional[DnsCache] = None,
                 upstream_timeout: float = 2000.0,
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        if not upstreams:
            raise ValueError("forwarding resolver needs at least one upstream")
        self.upstreams = list(upstreams)
        self.stub_domains = dict(stub_domains or {})
        self.cache = cache if cache is not None else DnsCache()
        self.upstream_timeout = upstream_timeout
        self.forwarded = 0
        self.served_from_cache = 0
        self.stale_served = 0

    def upstreams_for(self, qname: Name) -> List[Endpoint]:
        """The upstream list for ``qname``: longest stub-domain match wins."""
        dedicated = stub_domain_upstream(self.stub_domains, qname)
        return [dedicated] if dedicated is not None else self.upstreams

    def handle_query(self, query: Message, client: Endpoint) -> Generator:
        question = query.question
        now = self.network.sim.now
        tel = self.network.telemetry
        ctx = getattr(query, "trace_ctx", None)
        cached = self.cache.get(question.name, question.rtype, now)
        if tel is not None:
            tel.tracer.event("ldns.cache-lookup", "resolver", self.host.name,
                             parent=ctx, outcome=cached.outcome.name,
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

        for upstream in self.upstreams_for(question.name):
            self.forwarded += 1
            response = yield from self.forward(
                query, upstream, self.upstream_timeout, forward_ecs=True,
                ctx=ctx)
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
                                     self.host.name, parent=ctx,
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
