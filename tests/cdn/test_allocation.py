"""Tests for consistent-hash traffic allocation (repro.cdn.allocation).

Covers the extracted :class:`HashRing` (the geometry the traffic router
has always used) and :class:`ConsistentAllocator`'s bounded-load
guarantees after Huang et al.: no member above
``ceil((1 + epsilon) * assigned / members)``, and sticky assignment.
"""

import math
from collections import Counter

import pytest

from repro.cdn.allocation import (ConsistentAllocator, HashRing, _vnode_points,
                                  hash_point)

MEMBERS = [f"cache-{index}" for index in range(5)]
KEYS = [f"10.64.{index // 256}.{index % 256}" for index in range(400)]


class TestHashRing:
    def test_pick_is_deterministic_and_member_valued(self):
        ring = HashRing(MEMBERS, name_of=str)
        other = HashRing(MEMBERS, name_of=str)
        for key in KEYS[:50]:
            picked = ring.pick(key)
            assert picked in MEMBERS
            assert other.pick(key) == picked

    def test_all_members_receive_keys(self):
        ring = HashRing(MEMBERS, name_of=str)
        hit = {ring.pick(key) for key in KEYS}
        assert hit == set(MEMBERS)

    def test_walk_starts_at_pick_and_visits_each_member_once(self):
        ring = HashRing(MEMBERS, name_of=str)
        for key in KEYS[:20]:
            walked = list(ring.walk(key))
            assert walked[0] == ring.pick(key)
            assert sorted(walked) == sorted(MEMBERS)

    def test_predicate_skips_ineligible_members(self):
        ring = HashRing(MEMBERS, name_of=str)
        only = MEMBERS[3]
        for key in KEYS[:20]:
            assert ring.pick(key, lambda member: member == only) == only

    def test_empty_ring_picks_nothing(self):
        ring = HashRing([], name_of=str)
        assert ring.pick("anything") is None
        assert list(ring.walk("anything")) == []

    def test_name_of_defaults_to_name_attribute(self):
        class Named:
            def __init__(self, name):
                self.name = name

        members = [Named("a"), Named("b")]
        by_name = HashRing(members)
        by_str = HashRing(["a", "b"], name_of=str)
        for key in KEYS[:20]:
            assert by_name.pick(key).name == by_str.pick(key)

    def test_hash_point_is_stable(self):
        # The ring coordinate function is part of the on-disk/digest
        # contract between the router and the workload engine; pin it.
        assert hash_point("cache-0#0") == hash_point("cache-0#0")
        assert hash_point("cache-0#0") != hash_point("cache-0#1")


#: Every vnode of a MEMBERS ring as ``(point, seq)``, in ring order.
RING_ENTRIES = sorted((hash_point(f"{name}#{vnode}"), seq)
                      for seq, name in enumerate(MEMBERS)
                      for vnode in range(64))


def scan_pick(key, predicate=None):
    """``HashRing(MEMBERS).pick`` by brute force: every vnode, starting
    at the first point at or past the key's and wrapping."""
    at = hash_point(key)
    clockwise = ([entry for entry in RING_ENTRIES if entry[0] >= at]
                 + [entry for entry in RING_ENTRIES if entry[0] < at])
    for _, seq in clockwise:
        if predicate is None or predicate(MEMBERS[seq]):
            return MEMBERS[seq]
    return None


class TestPickAgainstALinearScan:
    SCAN_KEYS = [f"obj{index:07d}.pop.mycdn.ciab.test"
                 for index in range(2_000)]

    def test_without_a_predicate(self):
        ring = HashRing(MEMBERS, name_of=str)
        for key in self.SCAN_KEYS:
            assert ring.pick(key) == scan_pick(key)

    def test_with_a_predicate(self):
        ring = HashRing(MEMBERS, name_of=str)
        healthy = {MEMBERS[1], MEMBERS[4]}
        for key in self.SCAN_KEYS:
            picked = ring.pick(key, lambda member: member in healthy)
            assert picked in healthy
            assert picked == scan_pick(
                key, lambda member: member in healthy)

    def test_keys_past_the_last_point_wrap_to_the_first(self):
        ring = HashRing(MEMBERS, name_of=str)
        last_point = RING_ENTRIES[-1][0]
        wrapping = [key for key in self.SCAN_KEYS
                    if hash_point(key) > last_point]
        assert wrapping  # ~1 key in 320 lands past the last vnode
        first = scan_pick(wrapping[0])
        for key in wrapping:
            assert ring.pick(key) == first
            assert ring.pick(key, lambda member: True) == first
            assert next(iter(ring.walk(key))) == first

    def test_an_all_rejecting_predicate_picks_nothing(self):
        ring = HashRing(MEMBERS, name_of=str)
        for key in self.SCAN_KEYS[:50]:
            assert ring.pick(key, lambda member: False) is None


def unmemoised_entries(members, vnodes):
    """``(point, seq)`` of every vnode in ring order, hashed from scratch."""
    return sorted(((hash_point(f"{name}#{vnode}"), seq)
                   for seq, name in enumerate(members)
                   for vnode in range(vnodes)),
                  key=lambda entry: entry[0])


class TestVnodePointMemo:
    """A rebuilt ring re-uses its members' points; it must not move one."""

    @pytest.mark.parametrize("vnodes", (64, 7))
    def test_rings_sharing_members_equal_the_unmemoised_construction(
            self, vnodes):
        _vnode_points.cache_clear()
        # The second ring meets three remembered names at new positions.
        for members in (MEMBERS, ["cache-9", *MEMBERS[3:0:-1], "cache-7"]):
            ring = HashRing(members, vnodes=vnodes, name_of=str)
            entries = unmemoised_entries(members, vnodes)
            assert ring._points == [point for point, _ in entries]
            assert ring._seqs == [seq for _, seq in entries]
            assert ring._members == [members[seq] for _, seq in entries]
            points = ring._points
            for key in KEYS[:100]:
                at = hash_point(key)
                first = next((index for index, point in enumerate(points)
                              if point >= at), 0)
                assert ring.pick(key) == ring._members[first]
                clockwise = ring._members[first:] + ring._members[:first]
                assert list(ring.walk(key)) == list(dict.fromkeys(clockwise))
        info = _vnode_points.cache_info()
        assert (info.misses, info.hits) == (7, 3)

    def test_memo_is_bounded_and_keyed_by_vnode_count(self):
        assert _vnode_points.cache_info().maxsize is not None
        assert _vnode_points("cache-0", 3) == _vnode_points("cache-0", 64)[:3]
        assert len(_vnode_points("cache-0", 64)) == 64


class TestWalk:
    def test_walk_is_an_iterator(self):
        # The hand-written walk iterator had no __iter__, so iter() of
        # it raised TypeError.
        ring = HashRing(MEMBERS, name_of=str)
        walk = ring.walk(KEYS[0])
        assert iter(iter(walk)) is walk
        assert sorted(walk) == sorted(MEMBERS)

    def test_walk_orders_members_by_their_first_vnode(self):
        ring = HashRing(MEMBERS, name_of=str)
        for key in KEYS[:50]:
            rejected = []
            expected = []
            while len(expected) < len(MEMBERS):
                expected.append(scan_pick(
                    key, lambda member: member not in rejected))
                rejected.append(expected[-1])
            assert list(ring.walk(key)) == expected

    def test_a_member_listed_twice_is_walked_twice(self):
        # Dedup is by position in the member list, not by value.
        ring = HashRing(["a", "b", "a"], name_of=str)
        assert sorted(ring.walk("key")) == ["a", "a", "b"]


def assign_all(allocator, keys):
    """Each member's key count after assigning ``keys`` in order."""
    return Counter(allocator.assign(key) for key in keys)


class TestBoundedLoads:
    def test_no_member_exceeds_the_bound(self):
        allocator = ConsistentAllocator(MEMBERS, epsilon=0.25)
        loads = assign_all(allocator, KEYS)
        assert set(loads) <= set(MEMBERS)
        bound = math.ceil((1 + allocator.epsilon) * len(KEYS) / len(MEMBERS))
        assert max(loads.values()) <= bound
        assert sum(loads.values()) == len(KEYS)

    def test_bound_holds_after_every_assignment(self):
        allocator = ConsistentAllocator(MEMBERS, epsilon=0.1)
        loads = Counter()
        for assigned, key in enumerate(KEYS, start=1):
            loads[allocator.assign(key)] += 1
            bound = math.ceil((1 + allocator.epsilon) * assigned
                              / len(MEMBERS))
            assert max(loads.values()) <= bound

    def test_each_key_takes_the_first_member_under_the_bound(self):
        # A model of the rule: walk clockwise from the key, stop at the
        # first member whose load is under the bound counting this key.
        allocator = ConsistentAllocator(MEMBERS, epsilon=0.25)
        ring = HashRing(MEMBERS, name_of=str)
        loads = Counter()
        for assigned, key in enumerate(KEYS, start=1):
            bound = math.ceil((1 + allocator.epsilon) * assigned
                              / len(MEMBERS))
            expected = next(member for member in ring.walk(key)
                            if loads[member] < bound)
            assert allocator.assign(key) == expected
            loads[expected] += 1

    def test_an_unloaded_allocator_follows_the_ring(self):
        # With no load yet, the bound cannot bind: the first key goes
        # where plain consistent hashing puts it.
        ring = HashRing(MEMBERS, name_of=str)
        for key in KEYS[:50]:
            allocator = ConsistentAllocator(MEMBERS, epsilon=0.0)
            assert allocator.assign(key) == ring.pick(key)

    def test_epsilon_zero_is_perfectly_flat(self):
        allocator = ConsistentAllocator(MEMBERS, epsilon=0.0)
        loads = assign_all(allocator, KEYS[:100])
        counts = [loads[member] for member in MEMBERS]
        assert max(counts) - min(counts) <= 1

    def test_assignment_is_sticky(self):
        allocator = ConsistentAllocator(MEMBERS, epsilon=0.0)
        first = {key: allocator.assign(key) for key in KEYS}
        for key in reversed(KEYS):
            assert allocator.assign(key) == first[key]
        # Asking again adds no load: new keys land exactly where they
        # land on an allocator that saw each key once.
        fresh = ConsistentAllocator(MEMBERS, epsilon=0.0)
        assign_all(fresh, KEYS)
        newcomers = [f"10.65.0.{index}" for index in range(100)]
        assert [allocator.assign(key) for key in newcomers] == \
            [fresh.assign(key) for key in newcomers]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ConsistentAllocator(MEMBERS, epsilon=-0.1)

    def test_no_members_rejected(self):
        with pytest.raises(ValueError):
            ConsistentAllocator([])
