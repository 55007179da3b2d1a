"""Source NAT at the mobile gateway (P-GW).

The paper's §2: "The request's origin is often obfuscated in current
mobile networks including the client's IP address (CDN servers see the
public gateway's IP, not the end client's)".  This middlebox implements
exactly that: every UE flow leaving the mobile network is rewritten to one
of a small pool of public gateway addresses, and reply traffic is mapped
back.  Because the pool is shared — and in real deployments reused across
regions — server-side GeoIP of the observed address says little about the
client, which :mod:`repro.cdn.geo` models on the CDN side.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import AddressError
from repro.netsim.node import Host, Middlebox
from repro.netsim.packet import Datagram, Endpoint

#: RFC 1918 prefixes treated as "inside" the mobile network.
PRIVATE_PREFIXES = ("10.", "192.168.", "172.16.", "172.17.", "172.18.",
                    "172.19.", "172.2", "172.30.", "172.31.")

_FIRST_NAT_PORT = 20000
_LAST_NAT_PORT = 65000


def is_private(ip: str) -> bool:
    """Whether ``ip`` is inside the RFC 1918 private ranges."""
    return ip.startswith(PRIVATE_PREFIXES)


class NatMiddlebox(Middlebox):
    """Port-translating source NAT over a pool of public addresses.

    Flows are assigned public (ip, port) pairs round-robin across the
    pool, so consecutive clients can surface from different public
    addresses — the address-block reuse that frustrates CDN geo-location.
    """

    def __init__(self, public_ips: Sequence[str]) -> None:
        if not public_ips:
            raise AddressError("NAT needs at least one public address")
        self.public_ips = list(public_ips)
        self._forward: Dict[Endpoint, Endpoint] = {}
        self._reverse: Dict[Endpoint, Endpoint] = {}
        self._next_port: Dict[str, int] = {
            ip: _FIRST_NAT_PORT for ip in public_ips}
        self._next_ip_index = 0
        self.translations = 0

    # -- mapping management ------------------------------------------------------

    def _allocate_public(self, private: Endpoint) -> Endpoint:
        public_ip = self.public_ips[self._next_ip_index]
        self._next_ip_index = (self._next_ip_index + 1) % len(self.public_ips)
        port = self._next_port[public_ip]
        if port > _LAST_NAT_PORT:
            port = _FIRST_NAT_PORT
        self._next_port[public_ip] = port + 1
        public = Endpoint(public_ip, port)
        stale = self._reverse.pop(public, None)
        if stale is not None:
            self._forward.pop(stale, None)
        self._forward[private] = public
        self._reverse[public] = private
        return public

    # -- middlebox hook -------------------------------------------------------------

    def process(self, datagram: Datagram, host: Host) -> Optional[Datagram]:
        # Inbound: a reply addressed to one of our public mappings.
        """Translate one datagram (outbound SNAT / inbound reverse map)."""
        if datagram.dst in self._reverse:
            return datagram.rewritten(dst=self._reverse[datagram.dst])
        # Outbound: private source heading to a public destination.
        if is_private(datagram.src.ip) and not is_private(datagram.dst.ip) \
                and not host.owns(datagram.dst.ip):
            existing = self._forward.get(datagram.src)
            public = existing if existing is not None \
                else self._allocate_public(datagram.src)
            self.translations += 1
            return datagram.rewritten(src=public)
        # Intra-network traffic (e.g. UE to MEC cluster IPs) passes through,
        # which is what lets the MEC DNS see real client addresses.
        return datagram
