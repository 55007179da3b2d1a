"""Per-UE session models: how many requests, how far apart.

A *session* is one burst of CDN activity (opening an app, watching a
few video segments): a geometrically-distributed number of requests
separated by exponential think times.  Both draws come from the per-UE
RNG stream, so a UE's behaviour is a pure function of its sub-seed.
The think time, ``rng.expovariate(1 / mean_think_s)``, is drawn in-line
by the population engine (:func:`repro.workload.engine.run_district`).
"""

from __future__ import annotations

import random


class SessionModel:
    """Request-count draws and the think-time mean for one session."""

    def __init__(self, mean_requests: float = 8.0,
                 mean_think_s: float = 4.0) -> None:
        if mean_requests < 1:
            raise ValueError(f"mean_requests {mean_requests} below floor 1")
        if mean_think_s <= 0:
            raise ValueError(f"think time must be positive, got {mean_think_s}")
        self.mean_requests = mean_requests
        self.mean_think_s = mean_think_s
        #: Geometric success probability giving the requested mean above
        #: the one-request floor: E[1 + G] = 1 + (1-p)/p.
        self._p = 1.0 / (1.0 + (mean_requests - 1))

    def request_count(self, rng: random.Random) -> int:
        """Number of requests in one session (geometric, >= 1)."""
        count = 1
        while rng.random() >= self._p:
            count += 1
        return count

    def __repr__(self) -> str:
        return (f"SessionModel(mean_requests={self.mean_requests}, "
                f"think={self.mean_think_s}s)")
