"""UDP-style sockets with request/timeout semantics.

Servers bind a well-known port and set :attr:`UdpSocket.on_datagram`.
Clients use :meth:`UdpSocket.request`, which returns a
:class:`~repro.netsim.engine.SimFuture` resolving to the reply datagram or
failing with :class:`~repro.errors.QueryTimeout` — the race the paper's
fallback design ("forward to L-DNS on timeout from MEC DNS") depends on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import QueryTimeout, SocketError
from repro.netsim.engine import SimFuture
from repro.netsim.node import Host
from repro.netsim.packet import Datagram, Endpoint

#: Server handler signature: (datagram, its source endpoint, socket).
#: The handler reads the datagram's view, trace context or bytes, so
#: bytes nobody reads are never encoded.
DatagramHandler = Callable[[Datagram, Endpoint, "UdpSocket"], None]

#: Payload encoder for :meth:`UdpSocket.send_to`'s ``encode``.
Encoder = Callable[[object], bytes]


def _fail_request(future: SimFuture, dst: Endpoint, timeout: float) -> None:
    """Timeout event for :meth:`UdpSocket.request` (no-op if already won).

    A module-level function with scheduler-carried args — no closure
    allocated per request on the hottest client path (HOT002).
    """
    if future.done:
        return  # the reply won; format no message for a stale timer
    future.fail(QueryTimeout(f"no reply from {dst} within {timeout}ms"))


class UdpSocket:
    """A socket bound to one (host, ip, port)."""

    def __init__(self, host: Host, ip: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        if host.network is None:
            raise SocketError(f"host {host.name} is not attached to a network")
        self.host = host
        self.ip = ip or host.address
        if not host.owns(self.ip):
            raise SocketError(f"{host.name} does not own {self.ip}")
        self.port = port if port is not None else host.allocate_ephemeral_port()
        #: ``(ip, port)``, built once: the address never changes.
        self.endpoint = Endpoint(self.ip, self.port)
        self.closed = False
        self.on_datagram: Optional[DatagramHandler] = None
        self._pending_request: Optional[SimFuture] = None
        host.register_socket(self)

    # -- sending --------------------------------------------------------------

    def send_to(self, payload: object, dst: Endpoint, ctx=None,
                encode: Optional[Encoder] = None) -> None:
        """Send ``payload`` to ``dst`` (fire and forget).

        ``payload`` is the wire bytes or, with ``encode``, a decoded
        message whose bytes are ``encode(payload)``: it rides the
        datagram as its view (see :meth:`Datagram.claim_view`) and the
        bytes are computed only if something reads them.  From here on
        the message is read-only for this sender and for the receiver.
        ``ctx`` optionally attaches a telemetry trace context that rides
        the datagram out-of-band (it never touches the wire bytes).
        """
        if self.closed:
            raise SocketError("send on closed socket")
        datagram = Datagram(self.endpoint, dst, payload, "udp", encode)
        if ctx is not None:
            datagram.trace_ctx = ctx
        assert self.host.network is not None
        self.host.network.send(datagram, self.host)

    def request(self, payload: object, dst: Endpoint,
                timeout: float, ctx=None,
                encode: Optional[Encoder] = None) -> SimFuture:
        """Send and await the first datagram delivered back to this socket.

        The returned future resolves to the reply :class:`Datagram` or
        fails with :class:`QueryTimeout` after ``timeout`` ms.  One request
        may be outstanding per socket; protocol layers that need concurrent
        queries open one ephemeral socket per query, as real stub resolvers
        do.  ``ctx`` and ``encode`` apply as in :meth:`send_to`.
        """
        if self._pending_request is not None and not self._pending_request.done:
            raise SocketError("socket already has a request in flight")
        sim = self.host.network.sim  # type: ignore[union-attr]
        future = SimFuture(sim)
        self._pending_request = future
        sim.call_after(timeout, _fail_request, future, dst, timeout)
        self.send_to(payload, dst, ctx, encode)
        return future

    # -- receiving ----------------------------------------------------------------

    def handle_delivery(self, datagram: Datagram) -> None:
        """Network-side entry point: dispatch one arriving datagram."""
        if self.closed:
            return
        pending = self._pending_request
        if pending is not None and not pending.done:
            self._pending_request = None
            pending.resolve(datagram)
            return
        if self.on_datagram is not None:
            self.on_datagram(datagram, datagram.src, self)

    def close(self) -> None:
        """Release the underlying socket resources."""
        if not self.closed:
            self.closed = True
            # A timed-out request's future holds its error, whose traceback
            # holds this socket: let go, so the group dies by refcount.
            self._pending_request = None
            self.host.unregister_socket(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"UdpSocket({self.host.name} {self.endpoint}, {state})"
