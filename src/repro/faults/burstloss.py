"""Gilbert–Elliott two-state burst-loss model.

Independent per-packet loss cannot express what LTE radio links
actually do under interference: losses come in *bursts*.  The classic
Gilbert–Elliott chain models this with a Good and a Bad state; each
packet traversal first steps the chain, then drops with the loss
probability of the current state.  With ``p_enter`` small
and ``p_exit`` moderate, long loss-free stretches alternate with short
windows where almost everything dies — exactly the pattern that defeats
a fixed-timeout retry loop and motivates backoff + hedging.

Installed on a link as ``link.loss_model`` (usually via
:meth:`repro.faults.plan.FaultPlan.burst_loss`), it is the link's one loss
path; a link without one loses nothing.  State advances per traversal
and all draws come from the link's seeded RNG stream, so runs are
reproducible.
"""

from __future__ import annotations

import random


class GilbertElliott:
    """Two-state Markov loss process with per-state loss probabilities.

    ``p_enter``: P(Good -> Bad) per traversal; ``p_exit``: P(Bad -> Good)
    per traversal; ``bad_loss`` / ``good_loss``: drop probability while in
    each state.  Mean burst length is ``1 / p_exit`` traversals.
    """

    def __init__(self, p_enter: float, p_exit: float,
                 bad_loss: float = 1.0, good_loss: float = 0.0) -> None:
        for label, value in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0 < value <= 1:
                raise ValueError(f"{label} must be in (0, 1], got {value}")
        for label, value in (("bad_loss", bad_loss), ("good_loss", good_loss)):
            if not 0 <= value <= 1:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.bad_loss = bad_loss
        self.good_loss = good_loss
        self.in_bad_state = False
        self.traversals = 0
        self.losses = 0
        self.bursts_entered = 0

    def lost(self, rng: random.Random) -> bool:
        """Step the chain for one traversal; True if the packet drops."""
        if self.in_bad_state:
            if rng.random() < self.p_exit:
                self.in_bad_state = False
        elif rng.random() < self.p_enter:
            self.in_bad_state = True
            self.bursts_entered += 1
        self.traversals += 1
        loss = self.bad_loss if self.in_bad_state else self.good_loss
        if loss and rng.random() < loss:
            self.losses += 1
            return True
        return False

    def __repr__(self) -> str:
        state = "bad" if self.in_bad_state else "good"
        return (f"GilbertElliott(p_enter={self.p_enter}, "
                f"p_exit={self.p_exit}, bad_loss={self.bad_loss}, "
                f"state={state}, {self.losses}/{self.traversals} lost)")
