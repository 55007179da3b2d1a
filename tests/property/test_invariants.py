"""Property tests on core routing/NAT/hashing invariants."""

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.cdn.cache_server import CacheServer
from repro.cdn.content import ContentCatalog
from repro.cdn.allocation import HashRing
from repro.mobile.nat import NatMiddlebox
from repro.netsim import Network, RandomStreams, Simulator
from repro.netsim.packet import Datagram, Endpoint


def build_caches(count):
    sim = Simulator()
    net = Network(sim, RandomStreams(1))
    catalog = ContentCatalog()
    caches = []
    for index in range(count):
        host = net.add_host(f"c{index}", f"10.233.0.{index + 1}")
        caches.append(CacheServer(net, host, catalog))
    return caches


class TestHashRing:
    def test_balance_over_many_keys(self):
        caches = build_caches(8)
        ring = HashRing(caches)
        counts = {cache.name: 0 for cache in caches}
        for index in range(4000):
            pick = ring.pick(f"object-{index}", lambda c: True)
            counts[pick.name] += 1
        shares = [count / 4000 for count in counts.values()]
        # With 64 vnodes per cache the split stays within ~3x of fair.
        assert min(shares) > 1 / (8 * 3)
        assert max(shares) < 3 / 8

    def test_minimal_disruption_on_cache_loss(self):
        caches = build_caches(8)
        ring = HashRing(caches)
        keys = [f"object-{index}" for index in range(1500)]
        before = {key: ring.pick(key, lambda c: True) for key in keys}
        victim = caches[3]
        after = {key: ring.pick(key, lambda c: c is not victim)
                 for key in keys}
        moved = [key for key in keys if before[key] is not after[key]]
        # Only keys that lived on the victim may move.
        assert all(before[key] is victim for key in moved)
        assert moved  # the victim did own something

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_pick_is_deterministic(self, key):
        caches = build_caches(4)
        ring = HashRing(caches)
        first = ring.pick(key, lambda c: True)
        assert all(ring.pick(key, lambda c: True) is first
                   for _ in range(3))

    def test_empty_ring_returns_none(self):
        ring = HashRing([])
        assert ring.pick("anything", lambda c: True) is None


class _FakeHost:
    def owns(self, ip):
        return False


_flows = st.lists(
    st.tuples(st.integers(2, 250), st.integers(1024, 65000)),
    min_size=1, max_size=40, unique=True)


class TestNatProperties:
    @given(_flows)
    @settings(max_examples=60, deadline=None)
    def test_forward_reverse_bijection(self, flows):
        nat = NatMiddlebox(["198.51.100.1", "198.51.100.2"])
        host = _FakeHost()
        publics = {}
        for last_octet, port in flows:
            private = Endpoint(f"10.45.0.{last_octet}", port)
            out = nat.process(
                Datagram(private, Endpoint("203.0.113.9", 53), b"q"), host)
            publics[private] = out.src
        # Distinct privates map to distinct publics...
        assert len(set(publics.values())) == len(publics)
        # ...and every reply translates back to exactly its private.
        for private, public in publics.items():
            reply = nat.process(
                Datagram(Endpoint("203.0.113.9", 53), public, b"r"), host)
            assert reply.dst == private

    @given(_flows)
    @settings(max_examples=30, deadline=None)
    def test_repeat_packets_keep_mapping(self, flows):
        nat = NatMiddlebox(["198.51.100.1"])
        host = _FakeHost()
        for last_octet, port in flows:
            private = Endpoint(f"10.45.0.{last_octet}", port)
            first = nat.process(
                Datagram(private, Endpoint("203.0.113.9", 53), b"a"), host)
            second = nat.process(
                Datagram(private, Endpoint("203.0.113.9", 53), b"b"), host)
            assert first.src == second.src

    @given(st.integers(2, 250), st.integers(1024, 65000))
    @settings(max_examples=40, deadline=None)
    def test_public_addresses_come_from_pool(self, last_octet, port):
        pool = ["198.51.100.1", "198.51.100.2", "198.51.100.3"]
        nat = NatMiddlebox(pool)
        out = nat.process(
            Datagram(Endpoint(f"10.45.0.{last_octet}", port),
                     Endpoint("203.0.113.9", 53), b"q"), _FakeHost())
        assert out.src.ip in pool


class TestPoolAddressProperties:
    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_pool_addresses_always_inside_cidr(self, key):
        from repro.cdn.providers import PROVIDERS
        for provider in PROVIDERS.values():
            for pool in provider.pools:
                address = pool.address_for(key)
                assert ipaddress.IPv4Address(address) in \
                    ipaddress.IPv4Network(pool.cidr)
                # Never the network or broadcast address.
                network = ipaddress.IPv4Network(pool.cidr)
                assert address != str(network.network_address)
                assert address != str(network.broadcast_address)
