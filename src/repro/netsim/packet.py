"""Datagrams and endpoints.

A :class:`Datagram` is the unit the network moves: an opaque payload plus
source/destination endpoints.  Middleboxes (NAT at the P-GW) rewrite the
endpoints; the payload is never interpreted below the application layer,
and is encoded only if something reads it.
"""

from __future__ import annotations

import functools
import ipaddress
from typing import Callable, NamedTuple, Optional, Tuple


class Endpoint(NamedTuple):
    """An (ip, port) pair."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@functools.lru_cache(maxsize=4096)
def parse_ipv4(ip: str) -> int:
    """The integer form of a dotted-quad address, parsed once per string.

    Client addresses repeat across every query a router or policy
    plugin sees, so membership tests run on this integer against
    :func:`parse_ipv4_network`'s mask.  A malformed string raises
    ``ValueError`` on every call (errors are not cached).
    """
    return int(ipaddress.IPv4Address(ip))


@functools.lru_cache(maxsize=1024)
def parse_ipv4_network(cidr: str) -> Tuple[int, int, int]:
    """``(network, netmask, prefixlen)`` of a CIDR string, as integers.

    ``parse_ipv4(ip) & netmask == network`` is exactly ``ip in
    IPv4Network(cidr)``; a CIDR with host bits set raises ``ValueError``
    like the constructor does.
    """
    network = ipaddress.IPv4Network(cidr)
    return (int(network.network_address), int(network.netmask),
            network.prefixlen)


class Datagram:
    """One UDP-style datagram in flight.

    ``payload`` is either the wire bytes or, with ``encode``, a decoded
    message whose bytes are ``encode(payload)``.  Such a message rides
    as the datagram's :attr:`view`, and its bytes are computed on the
    first read of :attr:`payload` or :attr:`size`: a receiver that takes
    the view never pays for an encode nobody reads.
    """

    __slots__ = ("src", "dst", "protocol", "trace_ctx", "view", "_wire",
                 "_message", "_encode")

    def __init__(self, src: Endpoint, dst: Endpoint, payload: object,
                 protocol: str = "udp",
                 encode: Optional[Callable[[object], bytes]] = None) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        #: Out-of-band telemetry context riding alongside the payload.
        #: Never serialized — trace propagation must not change wire
        #: sizes or any simulated behaviour.
        self.trace_ctx = None
        #: The sender's decoded message (opaque to this layer — the
        #: application layers above put a dnswire Message here); the
        #: receiver takes it with :meth:`claim_view`.  The bytes are
        #: authoritative: the view never changes wire sizes, delays, or
        #: any simulated behaviour, it only spares the receiver a parse.
        #: The message is read-only on both sides from the send on: its
        #: sender keeps reading it, and its bytes may be encoded from it
        #: at any later read of ``payload``.
        self.view: Optional[object]
        self._message: object
        self._wire: Optional[bytes]
        self._encode = encode
        if encode is None:
            self._message = self.view = None
            self._wire = payload  # type: ignore[assignment]
        else:
            self._message = self.view = payload
            self._wire = None

    @property
    def payload(self) -> bytes:
        """The wire bytes, encoded from the sender's message on first read."""
        wire = self._wire
        if wire is None:
            wire = self._wire = self._encode(self._message)  # type: ignore[misc]
        return wire

    @property
    def size(self) -> int:
        """Payload length in octets."""
        return len(self.payload)

    def claim_view(self) -> Optional[object]:
        """Take the decoded payload view, leaving ``None`` behind.

        Claim-once keeps one reader per send: any later reader (a
        duplicate delivery) falls back to parsing ``payload``.
        """
        view = self.view
        self.view = None
        return view

    def rewritten(self, src: Optional[Endpoint] = None,
                  dst: Optional[Endpoint] = None) -> "Datagram":
        """A copy with src and/or dst replaced (payload and view kept)."""
        clone = Datagram(src or self.src, dst or self.dst, self._wire,
                         self.protocol)
        clone._message = self._message
        clone._encode = self._encode
        clone.trace_ctx = self.trace_ctx
        clone.view = self.view
        return clone

    def __repr__(self) -> str:
        return (f"Datagram({self.src} -> {self.dst}, {self.size}B, "
                f"{self.protocol})")
