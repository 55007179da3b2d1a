"""Point-to-point links with latency and loss."""

from __future__ import annotations

import random
from typing import Optional

from repro.netsim.latency import LatencyModel


class Link:
    """A bidirectional link between two hosts.

    ``latency`` applies in both directions (radio links are asymmetric in
    practice; the paper reports round-trip sums, so one model serves).
    ``loss`` is an independent per-traversal drop probability.
    """

    def __init__(self, a: str, b: str, latency: LatencyModel,
                 loss: float = 0.0, name: Optional[str] = None,
                 bandwidth_mbps: Optional[float] = None) -> None:
        if not 0 <= loss < 1:
            raise ValueError(f"loss probability {loss} out of [0, 1)")
        if bandwidth_mbps is not None and bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        self.a = a
        self.b = b
        self.latency = latency
        self.loss = loss
        self.name = name or f"{a}<->{b}"
        #: Serialization rate; None models an uncongested fat pipe where
        #: per-packet transmission time is negligible.
        self.bandwidth_mbps = bandwidth_mbps
        #: Fault-injection state (see :mod:`repro.faults`): anything with
        #: ``lost(rng) -> bool``, e.g. Gilbert–Elliott, *replaces* the
        #: i.i.d. draw while installed.
        self.loss_model = None
        self.packets_carried = 0
        self.packets_dropped = 0
        self.bytes_carried = 0

    def sample_delay(self, rng: random.Random,
                     size_bytes: int = 0) -> Optional[float]:
        """One traversal: a delay in ms, or ``None`` if the packet is lost.

        With a bandwidth configured, the packet additionally pays its
        serialization time (size / rate); 1 Mbps = 125 bytes/ms.
        """
        if self.loss_model is not None:
            if self.loss_model.lost(rng):
                self.packets_dropped += 1
                return None
        elif self.loss and rng.random() < self.loss:
            self.packets_dropped += 1
            return None
        self.packets_carried += 1
        self.bytes_carried += size_bytes
        delay = self.latency.sample(rng)
        if self.bandwidth_mbps is not None and size_bytes:
            delay += size_bytes / (self.bandwidth_mbps * 125.0)
        return delay

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    def __repr__(self) -> str:
        return f"Link({self.name}, ~{self.mean_latency:.2f}ms, loss={self.loss})"
