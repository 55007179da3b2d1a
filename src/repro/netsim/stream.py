"""Reliable stream channels (the TCP stand-in).

UDP datagrams in :mod:`repro.netsim.socket` are fire-and-forget; some
protocol paths need a connection: DNS falls back to TCP when a response
is truncated (RFC 7766), and large cache fills behave like HTTP over TCP.

The model keeps what matters for latency studies and drops the rest:

* a connect() costs one handshake round trip before data flows;
* request/response exchanges on an open channel cost one round trip plus
  serialization of the payload at the link bandwidth;
* delivery is reliable — per-link loss is retried transparently, paying
  the retransmission delay — and ordered per channel.

Internally each exchange rides the datagram fabric with a retry loop, so
paths, NAT middleboxes, and taps all apply exactly as for UDP.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import QueryTimeout, SocketError
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.netsim.socket import UdpSocket

#: Handler signature for stream servers: (payload, peer) -> a process
#: returning the response bytes.
StreamHandler = Callable[[bytes, Endpoint], Generator]

#: Per-attempt retransmission timeout (ms) inside the reliability loop.
_RETRANSMIT_TIMEOUT = 1000.0
_MAX_RETRANSMITS = 6


class StreamServer:
    """Accepts stream exchanges on a well-known port.

    The handler is a generator (a simulator process) that returns the
    response bytes, so it can do upstream work first.
    """

    def __init__(self, network: Network, host: Host, port: int,
                 handler: StreamHandler,
                 ip: Optional[str] = None) -> None:
        self.network = network
        self.host = host
        self.handler = handler
        self.sock = UdpSocket(host, ip=ip, port=port)
        self.sock.on_datagram = self._on_segment
        self.exchanges_served = 0

    @property
    def endpoint(self) -> Endpoint:
        return self.sock.endpoint

    def _on_segment(self, payload: bytes, peer: Endpoint,
                    sock: UdpSocket) -> None:
        kind, body = _split_segment(payload)
        if kind == b"SYN":
            sock.send_to(_segment(b"SYNACK", body), peer)
            return
        if kind != b"REQ":
            return  # stray segment; a real stack would RST
        self.network.sim.spawn(self._serve(body, peer))

    def _serve(self, body: bytes, peer: Endpoint) -> Generator:
        response = yield from self.handler(body, peer)
        self.exchanges_served += 1
        if response is not None:
            self.sock.send_to(_segment(b"RSP", response), peer)

    def close(self) -> None:
        """Release the underlying socket resources."""
        self.sock.close()


class StreamChannel:
    """A client-side connection to a :class:`StreamServer`."""

    def __init__(self, network: Network, host: Host, peer: Endpoint) -> None:
        self.network = network
        self.host = host
        self.peer = peer
        self.connected = False
        self.round_trips = 0

    def connect(self, timeout: Optional[float] = None) -> Generator:
        """Process: the handshake round trip; returns self when open.

        ``timeout`` bounds the whole handshake (ms); None keeps only the
        per-retransmission bound.
        """
        # A per-host connection sequence keeps tokens unique without
        # id(self), whose value is an address-space artefact: the same
        # trial would put different bytes on the wire in different
        # processes, breaking byte-identical replay digests.
        token = f"{self.host.name}:{self.host.allocate_stream_token()}".encode()
        reply = yield from self._reliable_exchange(_segment(b"SYN", token),
                                                   expect=b"SYNACK",
                                                   timeout=timeout)
        if _split_segment(reply)[1] != token:
            raise SocketError("handshake token mismatch")
        self.connected = True
        return self

    def exchange(self, payload: bytes,
                 timeout: Optional[float] = None) -> Generator:
        """Process: send ``payload``, return the server's response bytes.

        ``timeout`` is an overall deadline in ms for the exchange; when it
        expires — a server that accepted the connection and then died
        mid-stream never answers — :class:`QueryTimeout` is raised instead
        of retransmitting forever.
        """
        if not self.connected:
            raise SocketError("exchange on an unconnected stream channel")
        reply = yield from self._reliable_exchange(_segment(b"REQ", payload),
                                                   expect=b"RSP",
                                                   timeout=timeout)
        return _split_segment(reply)[1]

    def close(self) -> None:
        """Release the underlying socket resources."""
        self.connected = False

    def _reliable_exchange(self, segment: bytes, expect: bytes,
                           timeout: Optional[float] = None) -> Generator:
        """Send with retransmission until a matching segment returns."""
        sim = self.network.sim
        deadline = None if timeout is None else sim.now + timeout
        last_error: Optional[Exception] = None
        for _ in range(_MAX_RETRANSMITS):
            attempt_timeout = _RETRANSMIT_TIMEOUT
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                attempt_timeout = min(attempt_timeout, remaining)
            sock = UdpSocket(self.host)
            try:
                reply = yield sock.request(segment, self.peer,
                                           attempt_timeout)
            except QueryTimeout as error:
                last_error = error
                continue
            finally:
                sock.close()
            self.round_trips += 1
            if _split_segment(reply.payload)[0] == expect:
                return reply.payload
            last_error = SocketError(
                f"unexpected segment {reply.payload[:12]!r}")
        if deadline is not None and sim.now >= deadline:
            raise QueryTimeout(
                f"stream exchange with {self.peer} exceeded {timeout}ms")
        raise last_error if last_error is not None else QueryTimeout(
            f"stream exchange with {self.peer} failed")


def open_channel(network: Network, host: Host, peer: Endpoint,
                 timeout: Optional[float] = None) -> Generator:
    """Process: connect a new channel to ``peer`` (handshake included)."""
    channel = StreamChannel(network, host, peer)
    yield from channel.connect(timeout=timeout)
    return channel


def _segment(kind: bytes, body: bytes) -> bytes:
    return kind + b"|" + body


def _split_segment(payload: bytes):
    kind, _, body = payload.partition(b"|")
    return kind, body
