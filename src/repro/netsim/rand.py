"""Named, reproducible random streams.

Every stochastic element (each link's latency, each load balancer, each
workload generator) draws from its own named stream derived from one root
seed.  Adding a new consumer therefore never perturbs the draws seen by
existing ones — the property that keeps experiments comparable across code
changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent ``random.Random`` streams under one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use.

        The sub-seed is a SHA-256 of (root seed, name), so streams are
        stable across runs and independent of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        sub_seed = int.from_bytes(digest[:8], "big")
        stream = random.Random(sub_seed)
        self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, streams={len(self._streams)})"
