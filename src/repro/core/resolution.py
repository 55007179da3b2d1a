"""Tier-aware resolution: following C-DNS next-tier referrals.

The paper's §3 (P2): "In cases where the content is not available at
MEC-CDN, C-DNS simply returns the address of another C-DNS running at a
different CDN tier, e.g., a mid-tier running alongside the mobile network
core, or a far-tier running in the cloud."

A plain stub resolver would treat that address as the content server.
:class:`EdgeAwareClient` understands the referral marker the traffic
router attaches (see :func:`repro.cdn.router.referral_marker`): when a
response says "this address is another C-DNS", it re-issues the query
there, walking down the tier chain until a cache address comes back.
Legacy clients ignore the marker and still work — they just talk to the
next router over HTTP-ish redirects in real ATC; here the marker keeps
the whole chain in DNS.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional

from repro.cdn.router import is_referral
from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.errors import ResolutionError
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.resolver.stub import StubResolver

DEFAULT_MAX_REFERRALS = 4


class TieredResolution(NamedTuple):
    """The outcome of a tier-following resolution."""

    name: Name
    addresses: List[str]
    status: str
    #: Every server queried, in order (L-DNS first, then each C-DNS tier).
    servers_queried: List[Endpoint]
    referrals_followed: int
    latency_ms: float


class EdgeAwareClient:
    """Resolves CDN names across tiers, starting from the MEC L-DNS."""

    def __init__(self, network: Network, host: Host, ldns: Endpoint) -> None:
        self.network = network
        self.host = host
        self.ldns = ldns
        self.stub = StubResolver(network, host, ldns)
        self.resolutions = 0
        self.referrals_followed = 0

    def resolve(self, name: Name,
                rtype: RecordType = RecordType.A) -> Generator:
        """Process returning a :class:`TieredResolution`.

        Raises :class:`~repro.errors.ResolutionError` if the referral
        chain exceeds ``DEFAULT_MAX_REFERRALS`` (a routing loop or a
        mis-configured tier stack).
        """
        started = self.network.sim.now
        self.resolutions += 1
        servers: List[Endpoint] = []
        target: Optional[Endpoint] = None  # None = use the default L-DNS
        referrals = 0
        while True:
            result = yield from self.stub.query(name, rtype, server=target)
            servers.append(result.server)
            if result.status != "NOERROR" or not result.addresses \
                    or not is_referral(result.response):
                return TieredResolution(
                    name=name, addresses=result.addresses,
                    status=result.status, servers_queried=servers,
                    referrals_followed=referrals,
                    latency_ms=self.network.sim.now - started)
            referrals += 1
            self.referrals_followed += 1
            if referrals > DEFAULT_MAX_REFERRALS:
                raise ResolutionError(
                    f"C-DNS referral chain for {name} exceeded "
                    f"{DEFAULT_MAX_REFERRALS} hops: {servers}")
            target = Endpoint(result.addresses[0], 53)
