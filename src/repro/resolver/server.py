"""Base class for simulated DNS servers.

Handles the transport plumbing every server shares: binding a socket,
taking each query's decoded form off its datagram (or decoding foreign
bytes: FORMERR on garbage, NOTIMP on unsupported opcodes), sampling a
per-query processing delay, running the subclass handler as a simulator
process, and encoding the response.

Subclasses implement :meth:`DnsServer.handle_query`, either as a plain
method returning a :class:`~repro.dnswire.message.Message` or as a
generator (a simulator process) when they need upstream queries.  A
query is read-only: its sender keeps reading it after the send (the id
check, the TCP re-send), so a server that needs a changed query builds
a copy in :meth:`DnsServer.rewrite_query`.
"""

from __future__ import annotations

import inspect
from typing import Generator, Optional

from repro.dnswire.message import (Message, cached_wire, make_query,
                                   make_response)
from repro.dnswire.types import Opcode, Rcode
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.latency import Constant, LatencyModel
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.netsim.socket import UdpSocket
from repro.resolver.exchange import exchange
from repro.telemetry.trace import ERROR_NAME, EndOnError

#: Default per-query processing time: sub-millisecond, as for a warm
#: in-memory resolver.
DEFAULT_PROCESSING_DELAY = Constant(0.2)

DNS_PORT = 53
#: One shot per upstream, in ms: how long every forwarder and the
#: recursive resolver wait on an upstream before giving up on it.
UPSTREAM_TIMEOUT_MS = 2000.0
#: The simulator has one port space per host (no protocol dimension), so
#: DNS-over-TCP (really TCP/53) listens here.
DNS_TCP_PORT = 1053
#: Responses larger than the client's advertised payload are truncated
#: (TC=1) and the client retries over the stream transport (RFC 7766).
CLASSIC_UDP_PAYLOAD = 512


class DnsServer:
    """A DNS server bound to ``host``'s address on :data:`DNS_PORT`.

    ``workers`` bounds concurrent query processing (an M/G/c-style service
    model): when every worker is busy, queries queue FIFO, and beyond
    ``max_queue`` they are silently dropped — which is what a flooded
    resolver looks like to its clients.  The default is unbounded, i.e.
    the server is never the bottleneck (the right model for the latency
    calibration experiments); the overload experiments set it explicitly.
    """

    def __init__(self, network: Network, host: Host,
                 processing_delay: Optional[LatencyModel] = None,
                 workers: Optional[int] = None,
                 max_queue: int = 256) -> None:
        self.network = network
        self.host = host
        self.name = f"{type(self).__name__}@{host.name}"
        self.processing_delay = processing_delay or DEFAULT_PROCESSING_DELAY
        self.sock = UdpSocket(host, port=DNS_PORT)
        self.sock.on_datagram = self._on_datagram
        self._rng = network.streams.stream(f"dns-server:{self.name}")
        self._next_query_id = 1
        self.queries_received = 0
        self.responses_sent = 0
        self.truncated_sent = 0
        self.tcp_queries_received = 0
        if workers is not None and workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        self.max_queue = max_queue
        self._busy_workers = 0
        self._backlog: "list" = []
        self.queries_dropped = 0
        self.peak_backlog = 0
        from repro.netsim.stream import StreamServer
        self._tcp_server = StreamServer(
            network, host, DNS_TCP_PORT, self._handle_stream_query,
            ip=self.sock.ip)

    @property
    def endpoint(self) -> Endpoint:
        return self.sock.endpoint

    # -- transport ------------------------------------------------------------

    def _on_datagram(self, payload: bytes, client: Endpoint,
                     sock: UdpSocket) -> None:
        self.queries_received += 1
        tel = self.network.telemetry
        if tel is not None:
            tel.metrics.counter("repro_dns_queries_total",
                                "queries received by DNS servers").inc(
                                    server=self.name)
        datagram = sock.delivering
        assert datagram is not None  # set for the length of this call
        # The sender's Message rides the datagram (resolver.exchange);
        # only bytes that arrive without one are parsed.
        query = datagram.claim_view()
        if not isinstance(query, Message):
            try:
                query = Message.from_wire(payload)
            except WireFormatError:
                self._send_error_for_garbage(payload, client)
                return
        if query.opcode != Opcode.QUERY or not query.questions:
            response = make_response(query, rcode=Rcode.NOTIMP)
            self._send(response, client)
            return
        # Join the client's trace: the context rode the datagram
        # out-of-band and travels beside the query from here on.
        self._admit(query, client, datagram.trace_ctx)

    def _admit(self, query: Message, client: Endpoint, trace) -> None:
        """Run immediately if a worker is free; queue or drop otherwise."""
        if self.workers is None or self._busy_workers < self.workers:
            self._busy_workers += 1
            self.network.sim.spawn(
                self._serve_and_release(query, client, trace))
            return
        if len(self._backlog) >= self.max_queue:
            self.queries_dropped += 1
            tel = self.network.telemetry
            if tel is not None:
                tel.metrics.counter(
                    "repro_dns_queries_shed_total",
                    "queries dropped by overloaded servers").inc(
                        server=self.name)
            return
        self._backlog.append((query, client, trace))
        self.peak_backlog = max(self.peak_backlog, len(self._backlog))

    def _serve_and_release(self, query: Message, client: Endpoint,
                           trace) -> Generator:
        try:
            yield from self._serve(query, client, trace)
        finally:
            self._busy_workers -= 1
            if self._backlog:
                self._busy_workers += 1
                self.network.sim.spawn(
                    self._serve_and_release(*self._backlog.pop(0)))

    def _serve(self, query: Message, client: Endpoint, trace) -> Generator:
        tel = self.network.telemetry
        span = None
        if tel is not None:
            qname = str(query.questions[0].name) if query.questions else "?"
            span = tel.tracer.begin("dns.serve", "resolver", self.host.name,
                                    parent=trace, server=self.name,
                                    qname=qname)
            # Children spawned by the handler (plugin chain, upstream
            # exchanges, the reply datagram) nest under the serve span.
            trace = span.context
        yield self.processing_delay.sample(self._rng)
        query = self.rewrite_query(query, client)
        response = yield from self._produce_response(query, client, trace)
        if response is not None:
            self._send(response, client, query, trace)
        if tel is not None:
            tel.tracer.end(span, rcode=(response.rcode.name
                                        if response is not None
                                        else "NO-RESPONSE"))

    def _produce_response(self, query: Message, client: Endpoint,
                          trace) -> Generator:
        try:
            result = self.handle_query(query, client, trace)
            if inspect.isgenerator(result):
                response = yield from result
            else:
                response = result
        except QueryTimeout:
            response = make_response(query, rcode=Rcode.SERVFAIL)
        return response

    def _handle_stream_query(self, payload: bytes,
                             client: Endpoint) -> Generator:
        """DNS-over-TCP path: no size limit, no truncation."""
        self.tcp_queries_received += 1
        try:
            query = Message.from_wire(payload)
        except WireFormatError:
            return b""
            yield  # pragma: no cover - generator marker
        yield self.processing_delay.sample(self._rng)
        query = self.rewrite_query(query, client)
        response = yield from self._produce_response(query, client, None)
        return response.to_wire() if response is not None else b""

    def _send(self, response: Message, client: Endpoint,
              query: Optional[Message] = None, trace=None) -> None:
        self.responses_sent += 1
        wire = cached_wire(response)
        max_payload = CLASSIC_UDP_PAYLOAD
        if query is not None and query.edns is not None:
            max_payload = max(query.edns.udp_payload, CLASSIC_UDP_PAYLOAD)
        if len(wire) > max_payload:
            # RFC 1035 §4.2.1 truncation: signal TC and drop the records
            # that no longer fit; the client retries over the stream.
            truncated = make_response(
                query if query is not None else response,
                rcode=response.rcode,
                recursion_available=response.flags.ra,
                authoritative=response.flags.aa)
            truncated.flags.tc = True
            wire = cached_wire(truncated)
            response = truncated
            self.truncated_sent += 1
        # The response object is done on this side — hand it to the
        # client as a decoded view so the reply is never re-parsed.
        self.sock.send_to(wire, client, ctx=trace, view=response)

    def _send_error_for_garbage(self, payload: bytes, client: Endpoint) -> None:
        """Best effort FORMERR: echo the query id if two octets exist."""
        if len(payload) < 2:
            return
        response = Message(msg_id=int.from_bytes(payload[:2], "big"),
                           rcode=Rcode.FORMERR)
        response.flags.qr = True
        self._send(response, client)

    # -- upstream helpers ---------------------------------------------------------

    def query_upstream(self, query: Message, server: Endpoint,
                       timeout: float, ctx=None) -> Generator:
        """Process: :func:`exchange` ``query`` with ``server``, traced.

        Raises :class:`~repro.errors.QueryTimeout` on timeout and
        :class:`~repro.errors.WireFormatError` on a reply that does not
        decode or carries the wrong transaction id.
        """
        tel = self.network.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.begin("upstream.exchange", "resolver",
                                    self.host.name, parent=ctx,
                                    server=self.name, upstream=str(server))
        with EndOnError(tel.tracer if tel is not None else None, span,
                        outcome=ERROR_NAME):
            response = yield from exchange(
                self.host, query, server, timeout, ip=self.sock.ip,
                ctx=span.context if span is not None else ctx)
        if tel is not None:
            tel.tracer.end(span, outcome=response.rcode.name)
        return response

    def forward(self, query: Message, upstream: Endpoint, timeout: float,
                forward_ecs: bool, ctx=None) -> Generator:
        """Process: relay ``query``'s question to ``upstream``, one shot.

        The forwarded query asks for recursion under a fresh id and, with
        ``forward_ecs``, carries the client's EDNS (its ECS option) on.
        Returns the upstream's response, or ``None`` when it stayed
        silent or answered garbage — the caller tries its next upstream
        or admits SERVFAIL, and builds its own reply either way.
        """
        question = query.question
        forwarded = make_query(question.name, question.rtype,
                               msg_id=self.allocate_query_id(),
                               recursion_desired=True)
        if forward_ecs and query.edns is not None:
            forwarded.edns = query.edns
        try:
            return (yield from self.query_upstream(forwarded, upstream,
                                                   timeout, ctx=ctx))
        except (QueryTimeout, WireFormatError):
            return None

    def allocate_query_id(self) -> int:
        """A fresh message id for an upstream query."""
        self._next_query_id = (self._next_query_id + 1) & 0xFFFF or 1
        return self._next_query_id

    # -- subclass API -----------------------------------------------------------------

    def rewrite_query(self, query: Message, client: Endpoint) -> Message:
        """The query the handler answers and the reply is sized for.

        ``query`` itself here: it is read-only, shared with its sender.
        A server that must change it returns a copy.
        """
        return query

    def handle_query(self, query: Message, client: Endpoint, trace):
        """Produce a response Message (or a generator yielding one).

        ``trace`` is the telemetry context to parent spans on (``None``
        when telemetry is off).  Returning ``None`` suppresses the
        response (used by policy plugins that deliberately ignore
        queries, per the paper's "MEC DNS ignores queries not related to
        MEC-CDN" workaround).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, {self.endpoint})"
