"""A CoreDNS-style plugin chain.

CoreDNS (the Kubernetes DNS server the paper's prototype re-purposes as
the MEC L-DNS) processes every query through an ordered chain of plugins;
each plugin may answer, rewrite, or pass the query on.  The MEC package
builds its CoreDNS analog from this chain with `kubernetes`,
`stubdomain/forward`, and `split-namespace` plugins.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Generator, List, Optional

from repro.dnswire.message import Message, make_response
from repro.dnswire.types import Rcode
from repro.netsim.packet import Endpoint


class QueryContext:
    """Mutable state threaded through the plugin chain for one query."""

    def __init__(self, query: Message, client: Endpoint) -> None:
        self.query = query
        self.client = client
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

    @property
    def qname(self):
        return self.query.question.name

    @property
    def rtype(self):
        return self.query.question.rtype


class Plugin:
    """One chain element.

    :meth:`handle` receives the context and a ``next_plugin`` continuation;
    call ``yield from next_plugin(ctx)`` to delegate down the chain.  It
    must be a generator (the chain runs as a simulator process) and should
    set ``ctx.response`` (or leave it for a later plugin).
    """

    name = "plugin"

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PluginChain:
    """An ordered list of plugins terminating in REFUSED."""

    def __init__(self, plugins: List[Plugin]) -> None:
        self.plugins = list(plugins)

    def run(self, ctx: QueryContext) -> Generator:
        """Process: run the chain; returns the response message."""
        def make_continuation(index: int):
            def continuation(inner_ctx: QueryContext) -> Generator:
                if index >= len(self.plugins):
                    # End of chain with no answer: refuse, as CoreDNS does
                    # without a fallthrough target.
                    inner_ctx.response = make_response(
                        inner_ctx.query, rcode=Rcode.REFUSED)
                    return inner_ctx.response
                plugin = self.plugins[index]
                tel = inner_ctx.telemetry
                span = None
                outer_trace = inner_ctx.trace
                if tel is not None:
                    span = tel.tracer.begin(
                        f"plugin.{plugin.name}", "mec", inner_ctx.track,
                        parent=outer_trace, qname=str(inner_ctx.qname))
                    # Spans begun by this plugin (and deeper chain
                    # links) nest under it; each query owns its
                    # context, so the save/restore cannot race.
                    inner_ctx.trace = span.context
                try:
                    result = plugin.handle(inner_ctx,
                                           make_continuation(index + 1))
                    if inspect.isgenerator(result):
                        response = yield from result
                    else:
                        response = result
                    if response is not None:
                        inner_ctx.response = response
                finally:
                    if span is not None:
                        inner_ctx.trace = outer_trace
                        tel.tracer.end(
                            span,
                            answered=inner_ctx.response is not None)
                return inner_ctx.response
            return continuation

        response = yield from make_continuation(0)(ctx)
        return response

    def __repr__(self) -> str:
        return f"PluginChain({[plugin.name for plugin in self.plugins]})"
