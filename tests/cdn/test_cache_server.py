"""Tests for cache servers, origin fill, and the fetch client."""

import pytest

from repro.cdn.cache_server import CacheServer
from repro.cdn.content import ContentCatalog
from repro.cdn.httpsim import HttpClient
from repro.dnswire.name import Name
from repro.errors import QueryTimeout
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed


class Scenario:
    """client --1ms-- edge-cache --10ms-- origin."""

    def __init__(self, capacity=10**6):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(5))
        self.net.add_host("client", "10.0.0.2")
        self.net.add_host("edge", "10.0.0.80")
        self.net.add_host("origin", "203.0.113.80")
        self.net.add_link("client", "edge", Constant(1))
        self.net.add_link("edge", "origin", Constant(10))
        self.catalog = ContentCatalog()
        self.small = self.catalog.add_object(Name("cdn.test"), "/small.js", 1_000)
        self.big = self.catalog.add_object(Name("cdn.test"), "/big.bin", 600_000)
        self.origin = CacheServer(self.net, self.net.host("origin"),
                                  self.catalog, is_origin=True)
        self.edge = CacheServer(self.net, self.net.host("edge"), self.catalog,
                                capacity_bytes=capacity,
                                parent=self.origin.endpoint)
        self.client = HttpClient(self.net, self.net.host("client"))

    def fetch(self, item, server=None):
        target = server or self.edge
        future = self.sim.spawn(
            self.client.fetch(item.url, target.endpoint.ip))
        return self.sim.run_until_resolved(future)


class TestCacheServer:
    def test_miss_fills_from_origin_then_hits(self):
        scenario = Scenario()
        first = scenario.fetch(scenario.small)
        assert first.status == 200
        assert not first.cache_hit
        assert scenario.edge.stats.misses == 1
        assert scenario.edge.stats.fills == 1
        second = scenario.fetch(scenario.small)
        assert second.cache_hit
        assert second.served_by == "edge"
        assert second.latency_ms < first.latency_ms

    def test_origin_serves_without_storing(self):
        scenario = Scenario()
        result = scenario.fetch(scenario.small, server=scenario.origin)
        assert result.status == 200
        assert result.cache_hit  # origin always "has" the content
        assert scenario.origin.used_bytes == 0

    def test_404_for_unknown_content(self):
        scenario = Scenario()
        future = scenario.sim.spawn(scenario.client.fetch(
            "http://cdn.test/nope.js", scenario.edge.endpoint.ip))
        result = scenario.sim.run_until_resolved(future)
        assert result.status == 404
        assert scenario.edge.stats.not_found == 1

    def test_offline_cache_times_out(self):
        scenario = Scenario()
        scenario.edge.online = False
        scenario.client.timeout = 100
        future = scenario.sim.spawn(scenario.client.fetch(
            scenario.small.url, scenario.edge.endpoint.ip))
        with pytest.raises(ProcessFailed) as excinfo:
            scenario.sim.run_until_resolved(future)
        assert isinstance(excinfo.value.__cause__, QueryTimeout)

    def test_capacity_triggers_eviction(self):
        scenario = Scenario(capacity=601_000)
        scenario.fetch(scenario.small)
        scenario.fetch(scenario.big)  # small (1k) + big (600k) > 601k? no: =601k fits
        extra = scenario.catalog.add_object(Name("cdn.test"), "/extra.js", 5_000)
        scenario.fetch(extra)  # forces eviction of LRU (small)
        assert scenario.edge.stats.evictions >= 1
        assert scenario.edge.used_bytes <= scenario.edge.capacity_bytes

    def test_lru_evicts_oldest_content(self):
        scenario = Scenario(capacity=601_000)
        scenario.fetch(scenario.small)
        scenario.fetch(scenario.big)
        scenario.fetch(scenario.small)  # refresh small
        extra = scenario.catalog.add_object(Name("cdn.test"), "/x.js", 5_000)
        scenario.fetch(extra)
        assert scenario.edge.contains(scenario.small.url)
        assert not scenario.edge.contains(scenario.big.url)

    def test_oversized_object_never_admitted(self):
        scenario = Scenario(capacity=10_000)
        scenario.fetch(scenario.big)
        assert not scenario.edge.contains(scenario.big.url)
        assert scenario.edge.used_bytes == 0

    def test_warm_preloads(self):
        scenario = Scenario()
        scenario.edge.warm([scenario.small])
        result = scenario.fetch(scenario.small)
        assert result.cache_hit
        assert scenario.edge.stats.fills == 0

    def test_transfer_time_scales_with_size(self):
        scenario = Scenario()
        scenario.edge.warm([scenario.small, scenario.big])
        small_result = scenario.fetch(scenario.small)
        big_result = scenario.fetch(scenario.big)
        assert big_result.latency_ms > small_result.latency_ms

    def test_hit_ratio_stat(self):
        scenario = Scenario()
        scenario.fetch(scenario.small)
        scenario.fetch(scenario.small)
        scenario.fetch(scenario.small)
        assert scenario.edge.stats.hit_ratio == pytest.approx(2 / 3)

    def test_invalid_capacity_rejected(self):
        scenario = Scenario()
        with pytest.raises(ValueError):
            CacheServer(scenario.net, scenario.net.add_host("c2", "10.0.0.81"),
                        scenario.catalog, capacity_bytes=0)
