"""A CoreDNS-style plugin chain, and the server that runs one.

CoreDNS (the Kubernetes DNS server the paper's prototype re-purposes as
the MEC L-DNS) processes every query through an ordered chain of plugins;
each plugin may answer, rewrite, or pass the query on.  Every L-DNS in
the reproduction is such a chain behind one socket, a
:class:`ChainServer`: the campus, ISP, carrier, LAN, Google and
Cloudflare resolvers run ``cache`` then ``forward``, and the MEC L-DNS
(:class:`repro.mec.coredns.CoreDnsServer`) adds ``kubernetes`` and
``stubdomain`` plugins between the two.  So every L-DNS follows one cache
rule set and one relay:

* **cache** answers hits and RFC 2308 negatives (NXDOMAIN and NODATA,
  each for the response's SOA-derived TTL); it stores only the answer
  records the question's name owns, so an upstream cannot plant an
  unrelated name in it; with ``serve_stale``
  (RFC 8767), answers an expired entry when the rest of the chain
  returned SERVFAIL or nothing;
* **forward** gives its upstream one shot of :data:`UPSTREAM_TIMEOUT_MS`;
  it relays the upstream's answer with its EDNS options and, when the
  upstream stays silent, admits SERVFAIL without RA.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.dnswire.message import (Message, make_query, make_response,
                                   mark_stale)
from repro.dnswire.types import Rcode
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.packet import Endpoint
from repro.resolver.cache import CacheOutcome, DnsCache, negative_ttl
from repro.resolver.server import UPSTREAM_TIMEOUT_MS, DnsServer


class QueryContext:
    """Mutable state threaded through the plugin chain for one query."""

    def __init__(self, query: Message, client: Endpoint) -> None:
        self.query = query
        self.client = client
        #: The query's question, read once: the query is read-only.
        question = query.question
        self.qname = question.name
        self.rtype = question.rtype
        self.response: Optional[Message] = None
        #: Free-form annotations plugins leave for each other
        #: (e.g. the namespace view selected for this client).
        self.metadata: Dict[str, Any] = {}
        #: Telemetry facade, current trace parent, and display track
        #: (host name); set by the server that built the context, all
        #: ignored when telemetry is off.
        self.telemetry = None
        self.trace = None
        self.track = "?"


class Plugin:
    """One chain element.

    :meth:`handle` receives the context and a ``next_plugin`` continuation;
    call ``yield from next_plugin(ctx)`` to delegate down the chain.  It
    must be a generator function (the chain runs it with ``yield from``
    as part of a simulator process, and does not check) and should
    set ``ctx.response`` (or leave it for a later plugin).
    """

    name = "plugin"
    #: The server running this plugin's chain (its clock, name and
    #: upstream helpers); set by :meth:`bind`.
    _owner: Optional[DnsServer] = None

    def bind(self, owner: DnsServer) -> None:
        """Attach the plugin to the server whose chain runs it."""
        self._owner = owner

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PluginChain:
    """An ordered list of plugins terminating in REFUSED."""

    def __init__(self, plugins: List[Plugin]) -> None:
        self.plugins = list(plugins)

    def run(self, ctx: QueryContext, index: int = 0) -> Generator:
        """Process: run the chain from ``index``; returns the response.

        The continuation handed to each plugin is a ``partial`` of this
        method, not a closure over itself, so a finished query leaves no
        reference cycle and frees by refcount.
        """
        if index >= len(self.plugins):
            # End of chain with no answer: refuse, as CoreDNS does
            # without a fallthrough target.
            ctx.response = make_response(ctx.query, rcode=Rcode.REFUSED)
            return ctx.response
        plugin = self.plugins[index]
        tel = ctx.telemetry
        span = None
        outer_trace = ctx.trace
        if tel is not None:
            span = tel.tracer.begin(
                f"plugin.{plugin.name}", "mec", ctx.track,
                parent=outer_trace, qname=str(ctx.qname))
            # Spans begun by this plugin (and deeper chain links) nest
            # under it; each query owns its context, so the save/restore
            # cannot race.
            ctx.trace = span.context
        try:
            response = yield from plugin.handle(
                ctx, partial(self.run, index=index + 1))
            if response is not None:
                ctx.response = response
        finally:
            if span is not None:
                ctx.trace = outer_trace
                tel.tracer.end(span, answered=ctx.response is not None)
        return ctx.response

    def __repr__(self) -> str:
        return f"PluginChain({[plugin.name for plugin in self.plugins]})"


class ChainServer(DnsServer):
    """A plugin chain behind one server socket: an L-DNS.

    A public resolver is ``ChainServer(network, host, [CachePlugin(),
    ForwardPlugin(upstream)])``; retrying is the client's business (its
    :class:`~repro.resolver.retry.RetryPolicy`).
    """

    def __init__(self, network, host, plugins: List[Plugin],
                 **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        self.chain = PluginChain(plugins)
        for plugin in plugins:
            plugin.bind(self)

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


class CachePlugin(Plugin):
    """Serves repeat queries from a local cache; fills it on the way out.

    Positive answers are cached for their TTL (a TTL-0 record is never
    cached), and only the answer records the question's name owns;
    NXDOMAIN and NODATA for :func:`negative_ttl` (RFC 2308).
    With ``serve_stale`` (RFC 8767), a downstream SERVFAIL or silence —
    the rest of the chain could not reach an upstream — is answered from
    an expired entry instead, marked with the stale-answer EDNS option.
    """

    name = "cache"

    def __init__(self, serve_stale: bool = False) -> None:
        self.cache = DnsCache(serve_stale=serve_stale)
        self.stale_served = 0
        #: Control-plane hook: returns True while a zone/endpoint update
        #: is still propagating (see ``repro.control``).  Stale answers
        #: handed out inside that window are the dangerous ones — they
        #: may point at endpoints the orchestrator already removed — so
        #: they are counted separately.
        self.churn_window: Optional[Callable[[], bool]] = None
        self.stale_served_during_churn = 0

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
        if cached.outcome != CacheOutcome.MISS:
            rcode = (Rcode.NXDOMAIN
                     if cached.outcome == CacheOutcome.NEGATIVE_NXDOMAIN
                     else Rcode.NOERROR)
            return make_response(ctx.query, rcode=rcode,
                                 recursion_available=True,
                                 answers=cached.records)
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
        if response is not None:
            self._store(ctx, response)
        return response

    def _store(self, ctx: QueryContext, response: Message) -> None:
        now = self._owner.network.sim.now
        if response.rcode == Rcode.NOERROR and response.answers:
            positive = [record for record in response.answers
                        if record.name == ctx.qname and record.ttl > 0]
            if positive:
                self.cache.put_records(positive, now)
        elif response.rcode in (Rcode.NXDOMAIN, Rcode.NOERROR):
            outcome = (CacheOutcome.NEGATIVE_NXDOMAIN
                       if response.rcode == Rcode.NXDOMAIN
                       else CacheOutcome.NEGATIVE_NODATA)
            self.cache.put_negative(ctx.qname, ctx.rtype, outcome,
                                    negative_ttl(response), now)


class RelayPlugin(Plugin):
    """Shared upstream relay: one shot of ``timeout`` ms per query."""

    def __init__(self) -> None:
        #: One shot of this many ms; ``MecCdnSite`` overwrites it.
        self.timeout = UPSTREAM_TIMEOUT_MS
        self.forwarded = 0

    def _forward(self, ctx: QueryContext, upstream: Endpoint) -> Generator:
        """Process: relay the question to ``upstream``, one shot.

        The forwarded query asks for recursion under a fresh id and
        carries the client's EDNS (its ECS option) on.
        """
        owner = self._owner
        assert owner is not None, "plugin not bound to a server"
        self.forwarded += 1
        forwarded = make_query(ctx.qname, ctx.rtype,
                               msg_id=owner.allocate_query_id(),
                               recursion_desired=True)
        edns = ctx.query.edns
        if edns is not None:
            forwarded.edns = edns
        # Every L-DNS relays by this one rule: its own SERVFAIL carries no
        # RA, and a relayed answer keeps the upstream's EDNS options.
        try:
            response = yield from owner.query_upstream(
                forwarded, upstream, self.timeout, ctx=ctx.trace)
        except (QueryTimeout, WireFormatError):
            return make_response(ctx.query, rcode=Rcode.SERVFAIL)
        reply = make_response(ctx.query, rcode=response.rcode,
                              recursion_available=True,
                              answers=response.answers,
                              authorities=response.authorities,
                              additionals=response.additionals)
        if response.edns is not None and reply.edns is not None:
            reply.edns.options = list(response.edns.options)
        return reply


class ForwardPlugin(RelayPlugin):
    """Default upstream for everything the earlier plugins passed on."""

    name = "forward"

    def __init__(self, upstream: Endpoint) -> None:
        super().__init__()
        self.upstream = upstream

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        response = yield from self._forward(ctx, self.upstream)
        return response
