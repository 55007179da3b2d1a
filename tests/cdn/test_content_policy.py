"""Tests for the content catalog and Zipf workloads."""

import random
from collections import Counter

import pytest

from repro.cdn.content import ContentCatalog, ContentItem, ZipfRankStream
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

