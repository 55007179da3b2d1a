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

#: One-off added latency (ms) on the first request after an intra-
#: session handover: the X2 detach/attach gap the packet-level
#: HandoffController imposes before new traffic flows.
HANDOVER_INTERRUPTION_MS = 50.0


class MobilityModel:
    """Session-grained movement between MEC sites.

    ``move_probability`` is the chance a session starts away from the
    UE's home site (commuting); ``handover_probability`` is the chance
    the UE crosses a site boundary *during* the session, which both
    relocates its remaining requests and charges one interruption.

    The population engine (:func:`repro.workload.engine.run_district`)
    draws a session's placement in-line from the UE's stream: one
    ``random()`` against ``move_probability`` (when it is above 0), and
    for a session of more than one request one against
    ``handover_probability`` (when it is above 0); a move or handover
    goes to a uniformly drawn other site, and a handover lands on a
    uniformly drawn request after the first.  A single-site population
    draws nothing, so the same seeds replay identically when the site
    count changes.
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

    def __repr__(self) -> str:
        return (f"MobilityModel({self.sites} sites, "
                f"move={self.move_probability}, "
                f"handover={self.handover_probability})")
