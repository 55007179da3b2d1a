"""Hosts and middleboxes.

A :class:`Host` owns one or more IP addresses and a set of bound sockets.
A :class:`Middlebox` attached to a host rewrites datagrams that traverse or
arrive at that host — this is how the P-GW's NAT (which hides client IPs
from CDNs, §2 of the paper) is modelled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import AddressError
from repro.netsim.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import Network
    from repro.netsim.socket import UdpSocket


class Middlebox:
    """Rewrites datagrams at a host on the forwarding path.

    Subclasses override :meth:`process`.  Returning a datagram whose
    destination IP is not owned by the host causes the network to keep
    forwarding; returning ``None`` drops the packet (firewall semantics).
    """

    def process(self, datagram: Datagram, host: "Host") -> Optional[Datagram]:
        """Rewrite (or drop, by returning None) a traversing datagram."""
        raise NotImplementedError


class Host:
    """A simulated machine: addresses, sockets, optional middlebox."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.addresses: List[str] = []
        self.network: Optional["Network"] = None
        self.middlebox: Optional[Middlebox] = None
        self._sockets: Dict[int, "UdpSocket"] = {}
        self._next_ephemeral = 49152
        self._next_stream_token = 0
        #: Fault-injection state (see :mod:`repro.faults`).  A ``down``
        #: host silently drops every datagram delivered to it (a crashed
        #: machine); ``brownout_ms`` adds that much delay to each delivery
        #: (a machine that is up but pathologically slow).
        self.down = False
        self.brownout_ms = 0.0
        #: When a list, the network appends the arrival time of every
        #: datagram this host forwards (the P-GW vantage of the paper's
        #: tcpdump).  ``None`` records nothing.
        self.crossings: Optional[List[float]] = None

    # -- addressing ----------------------------------------------------------

    @property
    def address(self) -> str:
        """The host's primary address."""
        if not self.addresses:
            raise AddressError(f"host {self.name} has no address")
        return self.addresses[0]

    def owns(self, ip: str) -> bool:
        """Whether this host holds address ``ip``."""
        return ip in self.addresses

    # -- sockets -----------------------------------------------------------------

    def register_socket(self, sock: "UdpSocket") -> None:
        """Bind a socket's port on this host (AddressError if taken)."""
        if sock.port in self._sockets:
            raise AddressError(
                f"port {sock.port} already bound on {self.name}")
        self._sockets[sock.port] = sock

    def unregister_socket(self, sock: "UdpSocket") -> None:
        """Release a socket's port binding."""
        self._sockets.pop(sock.port, None)

    def socket_on_port(self, port: int) -> Optional["UdpSocket"]:
        """The socket bound to ``port``, or None."""
        return self._sockets.get(port)

    def allocate_ephemeral_port(self) -> int:
        """The next free port in the ephemeral range."""
        for _ in range(16384):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 49152
            if port not in self._sockets:
                return port
        raise AddressError(f"host {self.name} has no free ephemeral ports")

    def allocate_stream_token(self) -> int:
        """The next handshake-token sequence number for this host.

        A plain counter, so tokens are unique per connection yet
        reproducible across processes — unlike ``id()``-derived tokens,
        which put address-space values on the wire.
        """
        self._next_stream_token += 1
        return self._next_stream_token

    def install_middlebox(self, middlebox: Middlebox) -> None:
        """Attach a middlebox that processes datagrams at this host."""
        self.middlebox = middlebox

    def __repr__(self) -> str:
        return f"Host({self.name}, {self.addresses})"
