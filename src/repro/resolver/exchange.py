"""Ask one server one question: the UDP exchange every DNS client shares."""

from __future__ import annotations

from typing import Generator, Optional

from repro.dnswire.message import Message, cached_wire
from repro.errors import WireFormatError
from repro.netsim.engine import SimFuture
from repro.netsim.node import Host
from repro.netsim.packet import Datagram, Endpoint
from repro.netsim.socket import UdpSocket


def exchange(host: Host, query: Message, server: Endpoint, timeout: float,
             ip: Optional[str] = None, ctx: Optional[object] = None,
             ) -> Generator[SimFuture, Datagram, Message]:
    """Process: send ``query`` to ``server``; return the decoded response.

    A fresh ephemeral socket per call (as real stubs do) keeps concurrent
    exchanges independent.  Raises :class:`~repro.errors.QueryTimeout`
    after ``timeout`` ms and :class:`~repro.errors.WireFormatError` on a
    reply that does not decode or does not carry ``query``'s id — the
    one place that is decided, for every client.  Emits no span, counter
    or RNG draw: observation belongs to the caller.
    """
    sock = UdpSocket(host, ip=ip)
    try:
        reply = yield sock.request(cached_wire(query), server, timeout,
                                   ctx=ctx)
    finally:
        sock.close()
    view = reply.claim_view()
    response = view if isinstance(view, Message) \
        else Message.from_wire(reply.payload)
    if response.msg_id != query.msg_id:
        raise WireFormatError("transaction id mismatch")
    return response
