"""Tests for the content catalog, workloads, and eviction policies."""

import random
from collections import Counter

import pytest

from repro.cdn.content import ContentCatalog, ContentItem, ZipfRankStream
from repro.cdn.policy import FifoPolicy, LfuPolicy, LruPolicy
from repro.dnswire import Name
from repro.errors import ContentNotFound


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = ContentCatalog()
        item = catalog.add_object(Name("cdn.test"), "/a.js", 1000)
        assert catalog.by_url(item.url) is item
        assert item.url == "http://cdn.test/a.js"

    def test_unknown_url_raises(self):
        with pytest.raises(ContentNotFound):
            ContentCatalog().by_url("http://cdn.test/missing")

    def test_for_domain(self):
        catalog = ContentCatalog()
        catalog.add_object(Name("a.test"), "/1", 10)
        catalog.add_object(Name("a.test"), "/2", 10)
        catalog.add_object(Name("b.test"), "/1", 10)
        assert len(catalog.under_domain(Name("a.test"))) == 2
        assert len(catalog.under_domain(Name("b.test"))) == 1

    def test_invalid_items_rejected(self):
        with pytest.raises(ValueError):
            ContentItem(Name("a.test"), "/x", 0)
        with pytest.raises(ValueError):
            ContentItem(Name("a.test"), "no-slash", 10)

    def test_populate_synthetic(self):
        catalog = ContentCatalog()
        items = catalog.populate_synthetic(Name("cdn.test"), 50,
                                           random.Random(1),
                                           min_bytes=100, max_bytes=10_000)
        assert len(items) == 50
        assert all(100 <= item.size_bytes <= 10_000 for item in items)
        assert len({item.url for item in items}) == 50


class TestZipf:
    def test_skew_favours_low_ranks(self):
        catalog = ContentCatalog()
        items = catalog.populate_synthetic(Name("cdn.test"), 100,
                                           random.Random(2))
        stream = ZipfRankStream(len(items), random.Random(3), exponent=1.0)
        counts = Counter(items[rank - 1].content_id
                         for rank in stream.ranks(5000))
        top = counts[items[0].content_id]
        mid = counts.get(items[50].content_id, 0)
        assert top > 10 * max(mid, 1) / 2  # rank 1 dominates rank 51
        assert top > counts.get(items[10].content_id, 0)

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            ZipfRankStream(0, random.Random(0))

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZipfRankStream(3, random.Random(0), exponent=0)

    def test_deterministic_given_seed(self):
        first = list(ZipfRankStream(10, random.Random(7)).ranks(20))
        second = list(ZipfRankStream(10, random.Random(7)).ranks(20))
        assert first == second


class TestPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LruPolicy()
        for cid in ("a", "b", "c"):
            policy.on_admit(cid)
        policy.on_hit("a")
        assert policy.choose_victim() == "b"

    def test_lru_eviction_removes_tracking(self):
        policy = LruPolicy()
        policy.on_admit("a")
        policy.on_evict("a")
        assert policy.choose_victim() is None

    def test_lfu_evicts_least_frequent(self):
        policy = LfuPolicy()
        for cid in ("a", "b", "c"):
            policy.on_admit(cid)
        policy.on_hit("a")
        policy.on_hit("a")
        policy.on_hit("b")
        assert policy.choose_victim() == "c"

    def test_lfu_tie_broken_by_age(self):
        policy = LfuPolicy()
        policy.on_admit("old")
        policy.on_admit("new")
        assert policy.choose_victim() == "old"

    def test_fifo_ignores_hits(self):
        policy = FifoPolicy()
        policy.on_admit("a")
        policy.on_admit("b")
        policy.on_hit("a")
        assert policy.choose_victim() == "a"

    def test_empty_policies_return_none(self):
        assert LruPolicy().choose_victim() is None
        assert LfuPolicy().choose_victim() is None
        assert FifoPolicy().choose_victim() is None
