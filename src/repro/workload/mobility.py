"""Inter-site mobility for population runs.

``repro.mobile.handoff`` models one handover in full packet-level
detail (tear down the radio link, re-attach, switch DNS).  At
population scale the engine needs the *consequences* of that machinery,
not its packets: where a UE is when a session starts, whether it moves
mid-session, and the interruption its traffic pays when it does.  The
interruption constant here is the X2-style control-plane gap the
full-fidelity controller exhibits; the churn experiment (PR 6) remains
the place where handover composes with zone propagation delays.
"""

from __future__ import annotations

import random
from typing import NamedTuple

#: One-off added latency (ms) on the first request after an intra-
#: session handover: the X2 detach/attach gap the packet-level
#: HandoffController imposes before new traffic flows.
HANDOVER_INTERRUPTION_MS = 50.0


class SessionPlacement(NamedTuple):
    """Where one session runs, and whether it moves mid-flight."""

    site: int
    #: Site after the mid-session handover, == ``site`` when none fires.
    handover_site: int
    #: Request ordinal at which the handover lands (-1 = no handover).
    handover_at: int


class MobilityModel:
    """Session-grained movement between MEC sites.

    ``move_probability`` is the chance a session starts away from the
    UE's home site (commuting); ``handover_probability`` is the chance
    the UE crosses a site boundary *during* the session, which both
    relocates its remaining requests and charges one interruption.
    """

    def __init__(self, sites: int,
                 move_probability: float = 0.15,
                 handover_probability: float = 0.05) -> None:
        if sites < 1:
            raise ValueError(f"mobility needs >= 1 site, got {sites}")
        if not 0.0 <= move_probability <= 1.0:
            raise ValueError(f"bad move probability {move_probability}")
        if not 0.0 <= handover_probability <= 1.0:
            raise ValueError(f"bad handover probability {handover_probability}")
        self.sites = sites
        self.move_probability = move_probability
        self.handover_probability = handover_probability

    def _other_site(self, rng: random.Random, current: int) -> int:
        """A uniformly-drawn site different from ``current``."""
        pick = rng.randrange(self.sites - 1)
        return pick if pick < current else pick + 1

    def place_session(self, rng: random.Random, home_site: int,
                      requests: int) -> SessionPlacement:
        """Draw one session's placement from the UE's RNG stream.

        Single-site populations short-circuit: nobody can move, and no
        RNG is consumed, so the same seeds replay identically when the
        site count changes.
        """
        if self.sites == 1:
            return SessionPlacement(site=0, handover_site=0, handover_at=-1)
        site = home_site
        if self.move_probability > 0 and rng.random() < self.move_probability:
            site = self._other_site(rng, home_site)
        handover_site = site
        handover_at = -1
        if (requests > 1 and self.handover_probability > 0
                and rng.random() < self.handover_probability):
            handover_site = self._other_site(rng, site)
            handover_at = 1 + rng.randrange(requests - 1)
        return SessionPlacement(site=site, handover_site=handover_site,
                                handover_at=handover_at)

    def __repr__(self) -> str:
        return (f"MobilityModel({self.sites} sites, "
                f"move={self.move_probability}, "
                f"handover={self.handover_probability})")
