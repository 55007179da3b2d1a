"""The CoreDNS analog: a DNS server assembled from chain plugins.

Mirrors the configuration the paper's prototype uses (§4):

* the **kubernetes** plugin resolves ``<svc>.<ns>.svc.cluster.local``
  to cluster IPs from the orchestrator's service registry;
* a **stub-domain** entry ("Configuration of Stub-domain and upstream
  nameserver using CoreDNS") sends the CDN delivery domain to the ATC
  Traffic Router (C-DNS);
* a default **forward** plugin sends everything else upstream — the
  provider's L-DNS — so non-MEC names keep resolving;
* a **cache** plugin serves repeat queries locally.

The chain is cache, kubernetes, stub domain, then forward when an
upstream is given.  A :class:`repro.mec.namespaces.SplitNamespacePlugin`
can be placed at the front of the chain to implement the public/internal
split.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Generator, List, Optional

from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import (Message, ResourceRecord, make_response,
                                   mark_stale)
from repro.dnswire.name import Name
from repro.dnswire.rdata import A
from repro.dnswire.types import Rcode, RecordType
from repro.mec.cluster import Orchestrator
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache
from repro.resolver.chain import Plugin, PluginChain, QueryContext
from repro.resolver.server import DnsServer

#: TTL for service-discovery answers (kubernetes plugin default is 5s).
SERVICE_TTL = 5
#: The client prefix ``ecs_inject`` advertises (the RFC 7871 IPv4 default).
ECS_V4_PREFIX = 24


def stub_domain_upstream(domains: Dict[Name, Endpoint],
                         qname: Name) -> Optional[Endpoint]:
    """The upstream of the longest configured domain ``qname`` is under."""
    matches = [domain for domain in domains if qname.is_subdomain_of(domain)]
    return domains[max(matches, key=len)] if matches else None


class CachePlugin(Plugin):
    """Serves repeat queries from a local cache; fills it on the way out.

    With ``serve_stale`` (RFC 8767), a downstream SERVFAIL — the rest of
    the chain could not reach an upstream — is answered from an expired
    entry instead, marked with the stale-answer EDNS option.
    """

    name = "cache"

    def __init__(self, serve_stale: bool = False) -> None:
        self.cache = DnsCache(serve_stale=serve_stale)
        self._owner: Optional[DnsServer] = None
        self.stale_served = 0
        #: Control-plane hook: returns True while a zone/endpoint update
        #: is still propagating (see ``repro.control``).  Stale answers
        #: handed out inside that window are the dangerous ones — they
        #: may point at endpoints the orchestrator already removed — so
        #: they are counted separately.
        self.churn_window: Optional[Callable[[], bool]] = None
        self.stale_served_during_churn = 0

    def bind(self, owner: DnsServer) -> None:
        """Attach the plugin to its owning server (for clock access)."""
        self._owner = owner

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        assert self._owner is not None, "plugin not bound to a server"
        now = self._owner.network.sim.now
        cached = self.cache.get(ctx.qname, ctx.rtype, now)
        tel = ctx.telemetry
        if tel is not None:
            tel.tracer.event("coredns.cache-lookup", "mec", ctx.track,
                             parent=ctx.trace, outcome=cached.outcome.name,
                             qname=str(ctx.qname))
            tel.metrics.counter("repro_coredns_cache_lookups_total",
                                "CoreDNS cache plugin probes by "
                                "outcome").inc(server=self._owner.name,
                                               outcome=cached.outcome.name)
        if cached.outcome == CacheOutcome.HIT:
            return make_response(ctx.query, recursion_available=True,
                                 answers=cached.records)
        if cached.outcome == CacheOutcome.NEGATIVE_NXDOMAIN:
            return make_response(ctx.query, rcode=Rcode.NXDOMAIN,
                                 recursion_available=True)
        response = yield from next_plugin(ctx)
        if self.cache.serve_stale and (
                response is None or response.rcode == Rcode.SERVFAIL):
            stale = self.cache.get_stale(ctx.qname, ctx.rtype,
                                         self._owner.network.sim.now)
            if stale.outcome == CacheOutcome.HIT:
                self.stale_served += 1
                if tel is not None:
                    tel.tracer.event("coredns.serve-stale", "mec", ctx.track,
                                     parent=ctx.trace, qname=str(ctx.qname))
                    tel.metrics.counter(
                        "repro_coredns_stale_served_total",
                        "RFC 8767 stale answers served by the cache "
                        "plugin").inc(server=self._owner.name)
                reply = make_response(ctx.query, recursion_available=True,
                                      answers=stale.records)
                if stale.stale:
                    mark_stale(reply)
                    if self.churn_window is not None and self.churn_window():
                        self.stale_served_during_churn += 1
                        if tel is not None:
                            tel.metrics.counter(
                                "repro_coredns_serve_stale_during_churn_total",
                                "RFC 8767 stale answers served while a "
                                "control-plane update was still "
                                "propagating").inc(server=self._owner.name)
                return reply
        if response is not None and response.rcode == Rcode.NOERROR \
                and response.answers:
            positive = [record for record in response.answers if record.ttl > 0]
            if positive:
                self.cache.put_records(positive, self._owner.network.sim.now)
        elif response is not None and response.rcode == Rcode.NXDOMAIN:
            self.cache.put_negative(ctx.qname, ctx.rtype,
                                    CacheOutcome.NEGATIVE_NXDOMAIN, 30,
                                    self._owner.network.sim.now)
        return response


class KubernetesPlugin(Plugin):
    """Service discovery over the orchestrator's registry."""

    name = "kubernetes"

    def __init__(self, orchestrator: Orchestrator) -> None:
        self.orchestrator = orchestrator
        self.cluster_domain = Name("cluster.local")

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        if not ctx.qname.is_subdomain_of(self.cluster_domain):
            response = yield from next_plugin(ctx)
            return response
        service = self.orchestrator.resolve_service_name(ctx.qname.to_text())
        if service is None or not service.ready_pods():
            return make_response(ctx.query, rcode=Rcode.NXDOMAIN,
                                 authoritative=True)
        if ctx.rtype not in (RecordType.A, RecordType.ANY):
            return make_response(ctx.query, authoritative=True)
        answer = ResourceRecord(ctx.qname, RecordType.A, SERVICE_TTL,
                                A(service.cluster_ip))
        return make_response(ctx.query, authoritative=True, answers=[answer])


class _ForwardingPluginBase(Plugin):
    """Shared upstream-forwarding machinery: one shot of ``timeout`` ms."""

    def __init__(self, forward_ecs: bool = True) -> None:
        #: One shot of this many ms; ``MecCdnSite`` overwrites it.
        self.timeout = 2000.0
        self.forward_ecs = forward_ecs
        self._owner: Optional[DnsServer] = None
        self.forwarded = 0

    def bind(self, owner: DnsServer) -> None:
        self._owner = owner

    def _forward(self, ctx: QueryContext, upstream: Endpoint) -> Generator:
        assert self._owner is not None, "plugin not bound to a server"
        self.forwarded += 1
        response = yield from self._owner.forward(
            ctx.query, upstream, self.timeout, self.forward_ecs, ctx.trace)
        # Unlike ForwardingResolver, this SERVFAIL omits RA and the relay
        # below copies the upstream's EDNS options: both differences are
        # in the golden digests (docs/PROTOCOLS.md, "Sloppy peers").
        if response is None:
            return make_response(ctx.query, rcode=Rcode.SERVFAIL)
        reply = make_response(ctx.query, rcode=response.rcode,
                              recursion_available=True,
                              answers=response.answers,
                              authorities=response.authorities,
                              additionals=response.additionals)
        if response.edns is not None and reply.edns is not None:
            reply.edns.options = list(response.edns.options)
        return reply


class StubDomainPlugin(_ForwardingPluginBase):
    """Routes configured sub-domains to dedicated upstreams (C-DNS)."""

    name = "stubdomain"

    def __init__(self, domains: Optional[Dict[Name, Endpoint]] = None,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.domains: Dict[Name, Endpoint] = dict(domains or {})

    def add(self, domain: Name, upstream: Endpoint) -> None:
        """Route queries under ``domain`` to a dedicated upstream."""
        self.domains[domain] = upstream

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        upstream = stub_domain_upstream(self.domains, ctx.qname)
        if upstream is None:
            response = yield from next_plugin(ctx)
            return response
        response = yield from self._forward(ctx, upstream)
        return response


class ForwardPlugin(_ForwardingPluginBase):
    """Default upstream for everything the earlier plugins passed on."""

    name = "forward"

    def __init__(self, upstream: Endpoint, **kwargs) -> None:
        super().__init__(**kwargs)
        self.upstream = upstream

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        response = yield from self._forward(ctx, self.upstream)
        return response


class CoreDnsServer(DnsServer):
    """CoreDNS: the plugin chain behind one server socket.

    ``front_plugins`` are placed before everything else (the split-
    namespace policy goes here); ``upstream`` adds a default forward
    plugin when given.
    """

    def __init__(self, network, host, orchestrator: Orchestrator,
                 stub_domains: Optional[Dict[Name, Endpoint]] = None,
                 upstream: Optional[Endpoint] = None,
                 front_plugins: Optional[List[Plugin]] = None,
                 forward_ecs: bool = True,
                 ecs_inject: bool = False,
                 serve_stale: bool = False,
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        #: When set, synthesize an ECS option carrying the client's subnet
        #: on queries that arrive without one (the §4 ECS experiment
        #: "enables ECS support at L-DNS").
        self.ecs_inject = ecs_inject
        self.kubernetes = KubernetesPlugin(orchestrator)
        self.stub = StubDomainPlugin(stub_domains, forward_ecs=forward_ecs)
        self.cache_plugin = CachePlugin(serve_stale=serve_stale)
        plugins: List[Plugin] = list(front_plugins or [])
        plugins.extend([self.cache_plugin, self.kubernetes, self.stub])
        self.forward_plugin: Optional[ForwardPlugin] = None
        if upstream is not None:
            self.forward_plugin = ForwardPlugin(upstream,
                                                forward_ecs=forward_ecs)
            plugins.append(self.forward_plugin)
        self.chain = PluginChain(plugins)
        for plugin in plugins:
            bind = getattr(plugin, "bind", None)
            if bind is not None:
                bind(self)

    def add_stub_domain(self, domain: Name, upstream: Endpoint) -> None:
        """The §4 configuration step: sub-domain -> C-DNS."""
        self.stub.add(domain, upstream)

    def rewrite_query(self, query: Message, client: Endpoint) -> Message:
        """With ``ecs_inject``, a copy of ``query`` carrying the client's
        subnet; a query that already has ECS passes as it is.

        The client's query is read-only (its sender still reads it, and a
        forwarder hands its EDNS on by reference), so the option goes on a
        shallow copy with an EDNS of its own.  That copy is what the chain
        answers and what the reply's UDP size limit comes from.
        """
        edns = query.edns
        has_ecs = edns is not None and edns.client_subnet is not None
        if not self.ecs_inject or has_ecs:
            return query
        base = Edns() if edns is None else edns
        injected = copy.copy(query)
        injected.edns = Edns(base.udp_payload, base.version, base.dnssec_ok,
                             base.options + [ClientSubnet(client.ip,
                                                          ECS_V4_PREFIX)])
        return injected

    def handle_query(self, query: Message, client: Endpoint,
                     trace) -> Generator:
        ctx = QueryContext(query, client)
        tel = self.network.telemetry
        if tel is not None:
            ctx.telemetry = tel
            ctx.trace = trace
            ctx.track = self.host.name
        response = yield from self.chain.run(ctx)
        return response
