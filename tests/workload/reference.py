"""The per-UE and per-session draws ``run_district`` makes in-line,
written as the calls they were.

The kernel derives each UE, its RNG stream, its session arrivals, its
request counts and its placements without a call or a frame per UE or
per session (``src/repro/workload/engine.py``).  These are the obvious
versions of those draws: the reference loop in
``test_kernel_equivalence.py`` runs on them, the pins there hold each
in-line draw to its call here, and ``test_population.py`` /
``test_arrivals.py`` hold these to the distributions they model.  The
models' parameters and validation stay in ``src``: each class here
extends the ``src`` class whose draws it makes.
"""

import random
from typing import Iterator, NamedTuple

from repro.runtime.spec import derive_seed
from repro.workload.arrivals import NhppArrivals
from repro.workload.mobility import MobilityModel
from repro.workload.sessions import SessionModel


class UserProfile(NamedTuple):
    """One synthesized UE, derived on demand."""

    index: int
    #: MEC site the UE's eNB belongs to (attachment point at rest).
    home_site: int
    #: Root of this UE's private RNG stream tree.
    seed: int

    def client_ip(self) -> str:
        """A stable synthetic client address for allocation hashing."""
        return (f"10.{64 + (self.index >> 16) % 64}."
                f"{(self.index >> 8) & 0xFF}.{self.index & 0xFF}")


class Population:
    """``size`` UEs attached across ``sites`` MEC sites.

    A UE is a pure function of ``(population seed, index)``, so nothing
    is materialized.  Home-site attachment hashes the index through its
    own ``derive_seed`` stream (not the UE's request RNG), so changing
    behavioural draws can never migrate anyone's home.
    """

    def __init__(self, size: int, sites: int, seed: int) -> None:
        if size < 1:
            raise ValueError(f"population needs >= 1 UE, got {size}")
        if sites < 1:
            raise ValueError(f"population needs >= 1 site, got {sites}")
        self.size = size
        self.sites = sites
        self.seed = seed

    def user(self, index: int) -> UserProfile:
        """The UE at ``index`` (0-based), derived fresh each call."""
        if not 0 <= index < self.size:
            raise IndexError(f"UE index {index} outside [0, {self.size})")
        return UserProfile(
            index=index,
            home_site=derive_seed(self.seed, "home", index) % self.sites,
            seed=derive_seed(self.seed, "ue", index))

    def user_rng(self, profile: UserProfile) -> random.Random:
        """The UE's behavioural RNG stream (arrivals, sessions, content).

        One stream per UE, consumed strictly in simulation order within
        that UE, keeps replay exact while sharing no state across UEs.
        """
        return random.Random(profile.seed)


class Arrivals(NhppArrivals):
    """Session start times by Lewis-Shedler thinning."""

    def rate_at(self, t_seconds: float) -> float:
        """The instantaneous arrival rate at ``t_seconds``."""
        return self.scale * self.profile.multiplier(t_seconds)

    def times(self, rng: random.Random, duration_s: float,
              start_s: float = 0.0) -> Iterator[float]:
        """Yield arrival times in ``[start_s, start_s + duration_s)``.

        Lewis-Shedler thinning: candidates at ``rate_max``, each kept
        with probability ``rate(t) / rate_max``.
        """
        if duration_s < 0:
            raise ValueError(f"negative duration {duration_s}")
        t = start_s
        end = start_s + duration_s
        while True:
            t += rng.expovariate(self.rate_max)
            if t >= end:
                return
            if rng.random() * self.rate_max <= self.rate_at(t):
                yield t


class Sessions(SessionModel):
    """Request-count draws for one session."""

    def request_count(self, rng: random.Random) -> int:
        """Number of requests in one session (geometric, >= 1)."""
        count = 1
        while rng.random() >= self.p:
            count += 1
        return count


class SessionPlacement(NamedTuple):
    """Where one session runs, and whether it moves mid-flight."""

    site: int
    #: Site after the mid-session handover, == ``site`` when none fires.
    handover_site: int
    #: Request ordinal at which the handover lands (-1 = no handover).
    handover_at: int


class Mobility(MobilityModel):
    """Session placement draws."""

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
