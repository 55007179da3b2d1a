"""Retry policies for resolution under faults: backoff, budgets, hedging.

The paper's measurements assume a network that answers; under injected
faults (:mod:`repro.faults`) the interesting question becomes *how* a
client keeps resolving.  This module packages the three standard
mechanisms as one pluggable :class:`RetryPolicy`:

* **exponential backoff with jitter** — per-attempt timeouts grow
  geometrically so a burst outage is waited out rather than hammered,
  and jitter decorrelates clients that fail together;
* **retry budgets** — an Envoy-style cap (``max(min_retries,
  ratio * requests)``) shared per destination, so retries cannot
  amplify an overload into a storm;
* **hedged queries** — after ``hedge_after_ms`` with no answer, a second
  identical query is raced against the first; whichever response arrives
  first wins.  Hedging converts one-off packet loss from a full timeout
  into roughly one extra RTT.

Every :class:`~repro.resolver.stub.StubResolver` holds exactly one
policy, and only stubs do: forwarding hops give each upstream one shot.
A plain "``t`` ms, ``r`` retries" client is
``RetryPolicy(retries=r, timeout_ms=t, backoff=1.0)``; with no jitter it
draws nothing from the caller's stream.
"""

from __future__ import annotations

import random
from typing import Optional


class RetryBudget:
    """Per-destination retry allowance: ``max(min_retries, ratio * requests)``.

    Shared by every client pointed at the same destination, it bounds the
    system-wide retry amplification factor at ``1 + ratio`` once traffic
    volume dwarfs ``min_retries``.
    """

    def __init__(self, ratio: float = 0.2, min_retries: int = 3) -> None:
        if ratio < 0:
            raise ValueError(f"budget ratio {ratio} must be >= 0")
        if min_retries < 0:
            raise ValueError(f"min_retries {min_retries} must be >= 0")
        self.ratio = ratio
        self.min_retries = min_retries
        self.requests = 0
        self.retries = 0
        self.retries_denied = 0

    @property
    def allowance(self) -> float:
        """How many retries the budget currently covers."""
        return max(float(self.min_retries), self.ratio * self.requests)

    def record_request(self) -> None:
        """Count a first-attempt request toward the budget base."""
        self.requests += 1

    def try_acquire(self) -> bool:
        """Spend one retry if the budget allows; False when exhausted."""
        if self.retries < self.allowance:
            self.retries += 1
            return True
        self.retries_denied += 1
        return False

    def __repr__(self) -> str:
        return (f"RetryBudget(ratio={self.ratio}, "
                f"min_retries={self.min_retries}, "
                f"{self.retries}/{self.allowance:.1f} spent, "
                f"denied={self.retries_denied})")


class RetryPolicy:
    """How a client retries: attempt count, timeouts, hedging, budget.

    ``timeout_ms`` is the first attempt's timeout; attempt ``n`` waits
    ``timeout_ms * backoff**(n-1)`` (clamped to ``max_timeout_ms``), with
    ``jitter_frac`` of symmetric multiplicative jitter drawn from the
    caller's RNG stream.  ``hedge_after_ms`` arms a hedged second query
    on the first attempt.  ``budget``, when shared between clients, gates
    every retry attempt globally.
    """

    def __init__(self, retries: int = 2, timeout_ms: float = 3000.0,
                 backoff: float = 2.0,
                 max_timeout_ms: Optional[float] = None,
                 jitter_frac: float = 0.0,
                 hedge_after_ms: Optional[float] = None,
                 budget: Optional[RetryBudget] = None) -> None:
        if retries < 0:
            raise ValueError(f"retries {retries} must be >= 0")
        if timeout_ms <= 0:
            raise ValueError(f"timeout {timeout_ms} must be positive")
        if backoff < 1.0:
            raise ValueError(f"backoff {backoff} must be >= 1")
        if not 0 <= jitter_frac < 1:
            raise ValueError(f"jitter_frac {jitter_frac} out of [0, 1)")
        if hedge_after_ms is not None and hedge_after_ms <= 0:
            raise ValueError(f"hedge_after_ms {hedge_after_ms} must be > 0")
        self.retries = retries
        self.timeout_ms = timeout_ms
        self.backoff = backoff
        self.max_timeout_ms = max_timeout_ms
        self.jitter_frac = jitter_frac
        self.hedge_after_ms = hedge_after_ms
        self.budget = budget

    def timeout_for(self, attempt: int,
                    rng: Optional[random.Random] = None) -> float:
        """Timeout (ms) for 1-based ``attempt``, backoff and jitter applied.

        A policy configured with jitter demands an explicit RNG stream:
        silently skipping the jitter when ``rng`` is omitted would both
        change behaviour and hide a break in the named-stream
        discipline.
        """
        if attempt < 1:
            raise ValueError(f"attempt {attempt} must be >= 1")
        timeout = self.timeout_ms * self.backoff ** (attempt - 1)
        if self.max_timeout_ms is not None:
            timeout = min(timeout, self.max_timeout_ms)
        if self.jitter_frac:
            if rng is None:
                raise ValueError(
                    "jitter_frac is set but no RNG stream was passed; "
                    "thread an explicit random.Random stream")
            timeout *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return timeout

    def may_retry(self, attempt: int) -> bool:
        """Whether attempt ``attempt + 1`` is allowed (count and budget)."""
        if attempt > self.retries:
            return False
        if self.budget is not None:
            return self.budget.try_acquire()
        return True

    def __repr__(self) -> str:
        hedge = (f", hedge_after={self.hedge_after_ms}ms"
                 if self.hedge_after_ms is not None else "")
        return (f"RetryPolicy(retries={self.retries}, "
                f"timeout={self.timeout_ms}ms, backoff={self.backoff}"
                f"{hedge})")
