"""User equipment: the mobile client.

A UE owns a host with a private bearer address, tracks which base station
it is attached to, and knows its current DNS resolver target — the thing
the paper's design switches on attachment/handoff.  :meth:`stub` builds a
stub resolver bound to the current target so experiments measure exactly
what a device would.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver


class UserEquipment:
    """One mobile device."""

    def __init__(self, network: Network, name: str, bearer_ip: str,
                 default_dns: Optional[Endpoint] = None) -> None:
        self.network = network
        self.host: Host = network.add_host(name, bearer_ip)
        self.base_station = None  # set by BaseStation.attach
        self._dns = default_dns
        self.dns_switches = 0

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def dns(self) -> Endpoint:
        if self._dns is None:
            raise ValueError(f"UE {self.name} has no DNS target configured")
        return self._dns

    def switch_dns(self, endpoint: Endpoint) -> None:
        """Point the UE's resolver at a new server (hand-off behaviour)."""
        if self._dns != endpoint:
            self.dns_switches += 1
        self._dns = endpoint

    def stub(self, policy: Optional[RetryPolicy] = None) -> StubResolver:
        """A stub resolver bound to the UE's current DNS target.

        ``policy`` replaces the stub's default
        :class:`~repro.resolver.retry.RetryPolicy` (timeouts, backoff,
        budget, hedging) for fault-injection runs.
        """
        return StubResolver(self.network, self.host, self.dns, policy=policy)

    def __repr__(self) -> str:
        attached = self.base_station.name if self.base_station else "detached"
        return f"UserEquipment({self.name}, at={attached}, dns={self._dns})"
