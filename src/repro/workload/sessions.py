"""Per-UE session models: how many requests, how far apart.

A *session* is one burst of CDN activity (opening an app, watching a
few video segments): a geometrically-distributed number of requests
separated by exponential think times.  Both draws come from the per-UE
RNG stream, so a UE's behaviour is a pure function of its sub-seed.
The population engine (:func:`repro.workload.engine.run_district`)
draws both in-line: the request count is 1 plus the number of
``rng.random()`` draws at or above :attr:`SessionModel.p` before the
first one below it, and the think time is
``rng.expovariate(1 / mean_think_s)``.
"""

from __future__ import annotations


class SessionModel:
    """The request-count parameter and the think-time mean of a session."""

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
        self.p = 1.0 / (1.0 + (mean_requests - 1))

    def __repr__(self) -> str:
        return (f"SessionModel(mean_requests={self.mean_requests}, "
                f"think={self.mean_think_s}s)")
