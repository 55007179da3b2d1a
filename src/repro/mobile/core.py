"""The mobile core network (EPC): S-GW and P-GW bearer path.

Builds the serving-gateway / packet-gateway pair behind one or more base
stations, with the NAT middlebox installed at the P-GW.  The P-GW is the
boundary the paper instruments with tcpdump, and the point where client
addresses are replaced by the public gateway pool.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mobile.nat import NatMiddlebox
from repro.mobile.profiles import AccessProfile
from repro.mobile.ran import BaseStation
from repro.netsim.latency import Constant, LatencyModel
from repro.netsim.network import Network
from repro.netsim.node import Host


class EvolvedPacketCore:
    """S-GW + P-GW with NAT, fronting a set of base stations."""

    def __init__(self, network: Network, name_prefix: str,
                 profile: AccessProfile,
                 sgw_ip: str, pgw_ip: str,
                 public_ips: Sequence[str]) -> None:
        self.network = network
        self.profile = profile
        self.name_prefix = name_prefix
        self.sgw: Host = network.add_host(f"{name_prefix}-sgw", sgw_ip)
        self.pgw: Host = network.add_host(f"{name_prefix}-pgw", pgw_ip)
        for public_ip in public_ips:
            network.assign_address(self.pgw, public_ip)
        self.nat = NatMiddlebox(public_ips)
        self.pgw.install_middlebox(self.nat)
        network.add_link(self.sgw.name, self.pgw.name, Constant(0.3),
                         name=f"{name_prefix}-s5")
        self.base_stations: List[BaseStation] = []

    def add_base_station(self, name: str, ip: str,
                         mec_dns=None) -> BaseStation:
        """Create an eNB/gNB and wire its S1 backhaul into the S-GW."""
        station = BaseStation(self.network, name, ip, self.profile,
                              mec_dns=mec_dns)
        self.network.add_link(station.name, self.sgw.name,
                              self.profile.access_backhaul,
                              name=f"{self.name_prefix}-s1:{name}")
        self.base_stations.append(station)
        return station

    def add_sgi_host(self, name: str, ip: str,
                     latency: LatencyModel) -> Host:
        """A host beyond the P-GW, LAN or WAN side, ``latency`` one-way."""
        host = self.network.add_host(name, ip)
        self.network.add_link(name, self.pgw.name, latency,
                              name=f"link-{name}")
        return host

    @property
    def gateway_name(self) -> str:
        """The host name experiments attach traces to (the P-GW)."""
        return self.pgw.name

    def __repr__(self) -> str:
        return (f"EvolvedPacketCore({self.name_prefix}, "
                f"{len(self.base_stations)} cells, "
                f"{len(self.nat.public_ips)} public IPs)")
