"""Datagrams and endpoints.

A :class:`Datagram` is the unit the network moves: an opaque payload plus
source/destination endpoints.  Middleboxes (NAT at the P-GW) rewrite the
endpoints; the payload is never interpreted below the application layer.
"""

from __future__ import annotations

import functools
import ipaddress
from typing import NamedTuple, Optional, Tuple


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
    """One UDP-style datagram in flight."""

    __slots__ = ("src", "dst", "payload", "protocol", "hops", "trace_ctx",
                 "view", "size")

    def __init__(self, src: Endpoint, dst: Endpoint, payload: bytes,
                 protocol: str = "udp") -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        #: Payload length in octets, precomputed: the size is read on
        #: every transit span, and the payload never changes after
        #: construction.
        self.size = len(payload)
        self.protocol = protocol
        #: Host names traversed so far (filled in by the network walk).
        self.hops: list = []
        #: Out-of-band telemetry context riding alongside the payload.
        #: Never serialized — trace propagation must not change wire
        #: sizes or any simulated behaviour.
        self.trace_ctx = None
        #: Optional already-decoded view of ``payload`` (opaque to this
        #: layer — the application layers above put a dnswire Message
        #: here); the receiver takes it with :meth:`claim_view`.
        #: ``payload`` stays authoritative: the view never changes wire
        #: sizes, delays, or any simulated behaviour, it only spares the
        #: receiver a re-parse of bytes the sender already had decoded.
        #: The view is read-only on both sides: a query's sender keeps
        #: reading it after the send, so a receiver that needs a changed
        #: message builds a copy.
        self.view: Optional[object] = None

    def claim_view(self) -> Optional[object]:
        """Take the decoded payload view, leaving ``None`` behind.

        Claim-once keeps one reader per send: any later reader (a
        duplicate delivery) falls back to parsing
        ``payload``.
        """
        view = self.view
        self.view = None
        return view

    def rewritten(self, src: Optional[Endpoint] = None,
                  dst: Optional[Endpoint] = None) -> "Datagram":
        """A copy with src and/or dst replaced (hop history preserved)."""
        clone = Datagram(src or self.src, dst or self.dst, self.payload,
                         self.protocol)
        clone.hops = list(self.hops)
        clone.trace_ctx = self.trace_ctx
        clone.view = self.view
        return clone

    def __repr__(self) -> str:
        return (f"Datagram({self.src} -> {self.dst}, {self.size}B, "
                f"{self.protocol})")
