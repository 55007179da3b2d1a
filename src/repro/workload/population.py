"""City-scale UE populations with per-UE deterministic RNG streams.

A :class:`Population` never materializes its users: a UE is a pure
function of ``(population seed, index)``, computed on demand via the
runtime's ``derive_seed``.  That is what lets one shard hold 10^6 UEs
in O(1) memory, and what makes sharding trivially deterministic — a
district owns an index range, and every property of UE *i* is the same
no matter which process computes it.

Home-site attachment hashes the index through its own ``derive_seed``
stream (not the UE's request RNG), so changing behavioural draws can
never migrate anyone's home.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.runtime.spec import derive_seed


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
    """``size`` UEs attached across ``sites`` MEC sites."""

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

    def __repr__(self) -> str:
        return (f"Population({self.size} UEs across {self.sites} sites, "
                f"seed={self.seed})")
