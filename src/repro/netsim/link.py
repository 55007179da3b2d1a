"""Point-to-point links with latency and an installable loss model."""

from __future__ import annotations

import random
from typing import Optional

from repro.netsim.latency import LatencyModel


class Link:
    """A bidirectional link between two hosts.

    ``latency`` applies in both directions (radio links are asymmetric in
    practice; the paper reports round-trip sums, so one model serves).
    A link loses nothing until a loss model is installed.
    """

    def __init__(self, a: str, b: str, latency: LatencyModel,
                 name: Optional[str] = None) -> None:
        self.a = a
        self.b = b
        self.latency = latency
        self.name = name or f"{a}<->{b}"
        #: The link's one loss path (see :mod:`repro.faults`): anything
        #: with ``lost(rng) -> bool``, e.g. Gilbert–Elliott; ``None``
        #: loses nothing.
        self.loss_model = None
        self.packets_carried = 0
        self.packets_dropped = 0

    def sample_delay(self, rng: random.Random) -> Optional[float]:
        """One traversal: a delay in ms, or ``None`` if the packet is lost."""
        if self.loss_model is not None and self.loss_model.lost(rng):
            self.packets_dropped += 1
            return None
        self.packets_carried += 1
        return self.latency.sample(rng)

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    def __repr__(self) -> str:
        return f"Link({self.name}, ~{self.mean_latency:.2f}ms)"
