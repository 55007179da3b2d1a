"""A tcpdump-analog packet tap.

The paper measures the wireless vs. resolver split of each DNS lookup "using
both dig from the client side and tcpdump at P-GW".  :class:`PacketTrace`
reproduces that method: attach it to a network, filter on a host name, and
read back timestamped records to compute per-segment timings.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.netsim.network import Network
from repro.netsim.packet import Datagram


class TraceRecord(NamedTuple):
    """One observed packet event."""

    time: float
    host: str
    event: str  # "send" | "forward" | "deliver" | "drop"
    src: str
    dst: str
    size: int
    protocol: str


class PacketTrace:
    """Collects :class:`TraceRecord` entries from a network tap."""

    def __init__(self, network: Network,
                 host_filter: Optional[str] = None) -> None:
        self._network = network
        self._host_filter = host_filter
        self.records: List[TraceRecord] = []
        # The network applies the host filter, so a hop at a host nobody
        # watches costs no simulator event.
        network.add_tap(self._observe, host_filter)

    def _observe(self, time: float, host: str, event: str,
                 datagram: Datagram) -> None:
        self.records.append(TraceRecord(
            time=time, host=host, event=event,
            src=str(datagram.src), dst=str(datagram.dst),
            size=datagram.size, protocol=datagram.protocol))

    def close(self) -> None:
        """Stop capturing."""
        self._network.remove_tap(self._observe, self._host_filter)

    def clear(self) -> None:
        """Drop all captured records (keep capturing)."""
        self.records.clear()

    def __repr__(self) -> str:
        scope = self._host_filter or "*"
        return f"PacketTrace(host={scope}, records={len(self.records)})"
