"""Consistent-hash traffic allocation: rings and bounded-load assignment.

Two allocators: the traffic router and the population workload engine
share the first, the engine alone runs the second:

* :class:`HashRing` — plain consistent hashing of request keys onto
  named members (the ring the C-DNS uses for pinning content to caches).
  The two layers share the ring's geometry, not its picks: the router
  keys on the query name with its trailing dot and names members by pod
  host, the engine keys on ``obj{rank:07d}.pop.mycdn.ciab.test`` and
  names members ``site{s}-cache{c}``, so the same object can land on
  different caches in the two layers;
* :class:`ConsistentAllocator` — consistent hashing **with bounded
  loads**, after Huang et al., "Consistent User-Traffic Allocation and
  Load Balancing in Mobile Edge Caching": sticky user→cache assignment
  where no member ever exceeds ``ceil((1 + epsilon) * assigned /
  members)`` keys, and a membership change moves only the users whose
  ring walk actually changed.

Everything here is pure data structure — no simulator, no sockets — so
the workload layer can replay routing decisions at millions-of-queries
scale without paying for packet events.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

#: Virtual nodes per member; matches the traffic router's historical
#: ring so extracted and in-router selections stay identical.
DEFAULT_VNODES = 64


#: Recognized traffic-allocation policies: hash the content name, hash
#: the client address, or Huang et al.'s bounded-load client allocation.
ALLOCATION_POLICIES = ("content", "client", "client-bounded")


def check_allocation(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a recognized policy."""
    if name not in ALLOCATION_POLICIES:
        raise ValueError(
            f"allocation must be one of {ALLOCATION_POLICIES}, "
            f"got {name!r}")


def hash_point(material: str) -> int:
    """The ring coordinate of ``material`` (sha256, first 8 bytes)."""
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@functools.lru_cache(maxsize=1024)
def _vnode_points(name: str, vnodes: int) -> Tuple[int, ...]:
    """The ring coordinates of member ``name``'s virtual nodes.

    A pure function of its key, remembered because a membership change
    builds a whole new ring over mostly the same few names.
    """
    return tuple(hash_point(f"{name}#{vnode}") for vnode in range(vnodes))


class HashRing:
    """Consistent hashing of string keys onto named members.

    Members are arbitrary objects named by ``name_of`` (default: their
    ``name`` attribute); the ring hashes ``"{name}#{vnode}"`` exactly
    as the traffic router always has, so a ring built over the same
    members picks the same targets.  A ring is immutable once built —
    a membership change builds a new ring — which is what lets callers
    remember a ``pick`` for as long as they hold the ring.
    """

    def __init__(self, members: Sequence[object],
                 vnodes: int = DEFAULT_VNODES,
                 name_of: Optional[Callable[[object], str]] = None) -> None:
        if name_of is None:
            name_of = _default_name
        entries: List[Tuple[int, int, object]] = []
        for seq, member in enumerate(members):
            for point in _vnode_points(name_of(member), vnodes):
                entries.append((point, seq, member))
        entries.sort(key=lambda entry: entry[0])
        # Three parallel lists in ring order: bisecting plain ints is
        # what a pick pays for, not building and comparing tuples.
        self._points: List[int] = [point for point, _, _ in entries]
        self._seqs: List[int] = [seq for _, seq, _ in entries]
        self._members: List[object] = [member for _, _, member in entries]

    def __len__(self) -> int:
        return len(self._points)

    def members(self) -> List[object]:
        """The distinct members on the ring, in insertion order."""
        ordered: Dict[int, object] = {}
        for seq, member in zip(self._seqs, self._members):
            if seq not in ordered:
                ordered[seq] = member
        return [ordered[seq] for seq in sorted(ordered)]

    def pick(self, key: str,
             predicate: Optional[Callable[[object], bool]] = None) -> Optional[object]:
        """The first eligible member clockwise of ``key``'s hash point."""
        members = self._members
        count = len(members)
        if not count:
            return None
        index = bisect.bisect_left(self._points, hash_point(key))
        if predicate is None:
            return members[index] if index < count else members[0]
        for step in range(count):
            member = members[(index + step) % count]
            if predicate(member):
                return member
        return None

    def walk(self, key: str) -> Iterator[object]:
        """Members clockwise of ``key``, each once (at its first vnode)."""
        count = len(self._points)
        start = bisect.bisect_left(self._points, hash_point(key))
        seen: Set[int] = set()
        for step in range(count):
            index = (start + step) % count
            seq = self._seqs[index]
            if seq not in seen:
                seen.add(seq)
                yield self._members[index]


def _default_name(member: object) -> str:
    name = getattr(member, "name", None)
    if name is None:
        return str(member)
    return str(name)


class ConsistentAllocator:
    """Sticky key→member assignment with bounded loads (Huang et al.).

    ``assign`` walks the ring clockwise from the key's hash point and
    takes the first member whose current load stays under the bound
    ``ceil((1 + epsilon) * (assigned + 1) / member_count)``.  Keys stay
    where they are until :meth:`set_members` changes the population; a
    membership change replays the walk for every key in assignment
    order, so only keys whose walk actually changed move — the
    consistency property the paper's hit-rate argument depends on.
    """

    def __init__(self, members: Sequence[str],
                 epsilon: float = 0.25) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self._members: List[str] = list(members)
        self._ring = HashRing(self._members,
                              name_of=lambda member: str(member))
        self._assigned: Dict[str, str] = {}
        self._loads: Dict[str, int] = {name: 0 for name in self._members}
        self.moves = 0

    @property
    def members(self) -> List[str]:
        return list(self._members)

    def load(self, member: str) -> int:
        """Current number of keys assigned to ``member``."""
        return self._loads.get(member, 0)

    def capacity(self, total: Optional[int] = None) -> int:
        """The bounded-load ceiling for ``total`` assigned keys."""
        if not self._members:
            return 0
        count = len(self._assigned) if total is None else total
        return int(math.ceil((1 + self.epsilon) * count
                             / len(self._members)))

    def assign(self, key: str,
               eligible: Optional[Callable[[str], bool]] = None) -> Optional[str]:
        """The member serving ``key``; assigns on first touch.

        A sticky assignment is honoured while its member remains
        eligible; otherwise the key is re-walked (and the old load
        released).  Returns ``None`` only when no member is eligible.
        """
        current = self._assigned.get(key)
        if current is not None:
            if current in self._loads and (eligible is None
                                           or eligible(current)):
                return current
            self._release_assignment(key, current)
        bound = self.capacity(len(self._assigned) + 1)
        chosen = self._walk(key, bound, eligible)
        if chosen is None and eligible is not None:
            # Every eligible member is at the bound; relax it rather
            # than fail the key (the paper's overflow-to-next rule).
            chosen = self._walk(key, None, eligible)
        if chosen is None:
            return None
        self._assigned[key] = chosen
        self._loads[chosen] = self._loads.get(chosen, 0) + 1
        return chosen

    def set_members(self, members: Sequence[str]) -> int:
        """Install a new member set; returns how many keys moved.

        Every key's walk is replayed in assignment order against the
        new ring, preserving stickiness where the walk still lands on
        the same member under the bound.
        """
        self._members = list(members)
        self._ring = HashRing(self._members,
                              name_of=lambda member: str(member))
        old = self._assigned
        self._assigned = {}
        self._loads = {name: 0 for name in self._members}
        moved = 0
        for key, previous in old.items():
            target = self.assign(key)
            if target != previous:
                moved += 1
        self.moves += moved
        return moved

    # -- internals -----------------------------------------------------------

    def _walk(self, key: str, bound: Optional[int],
              eligible: Optional[Callable[[str], bool]]) -> Optional[str]:
        for member in self._ring.walk(key):
            name = str(member)
            if eligible is not None and not eligible(name):
                continue
            if bound is None or self._loads.get(name, 0) < bound:
                return name
        return None

    def _release_assignment(self, key: str, member: str) -> None:
        del self._assigned[key]
        if member in self._loads and self._loads[member] > 0:
            self._loads[member] -= 1

    def __repr__(self) -> str:
        return (f"ConsistentAllocator({len(self._members)} members, "
                f"{len(self._assigned)} keys, eps={self.epsilon})")
