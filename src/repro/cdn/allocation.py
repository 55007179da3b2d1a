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
  members)`` keys.

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

    def lookup_table(self) -> Tuple[List[int], List[object]]:
        """``(points, owners)`` for a caller that bisects in-line:
        ``owners[bisect_left(points, hash_point(key))]`` is ``pick(key)``
        of a non-empty ring (``owners`` repeats the first member at the
        end, the wrap past the last point)."""
        return self._points, self._members + self._members[:1]

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
    ``ceil((1 + epsilon) * (assigned + 1) / member_count)``; the key
    stays there.  The loads sum to ``assigned`` and the bound times the
    member count exceeds it, so some member is always under the bound.
    Membership is fixed for the allocator's life.
    """

    def __init__(self, members: Sequence[str],
                 epsilon: float = 0.25) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if not members:
            raise ValueError("an allocator needs at least one member")
        self.epsilon = epsilon
        self._members: List[str] = list(members)
        self._ring = HashRing(self._members,
                              name_of=lambda member: str(member))
        self._assigned: Dict[str, str] = {}
        self._loads: Dict[str, int] = {name: 0 for name in self._members}

    def assign(self, key: str) -> str:
        """The member serving ``key``; assigns on first touch."""
        current = self._assigned.get(key)
        if current is not None:
            return current
        bound = int(math.ceil((1 + self.epsilon) * (len(self._assigned) + 1)
                              / len(self._members)))
        loads = self._loads
        chosen = next(member for member in self._ring.walk(key)
                      if loads[member] < bound)
        self._assigned[key] = chosen
        loads[chosen] += 1
        return chosen

    def __repr__(self) -> str:
        return (f"ConsistentAllocator({len(self._members)} members, "
                f"{len(self._assigned)} keys, eps={self.epsilon})")
