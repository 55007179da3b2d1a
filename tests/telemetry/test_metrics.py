"""Tests for the metrics registry: counters and histograms."""

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    BucketCell,
    Counter,
    Histogram,
    MetricsRegistry,
)


def cumulative_buckets(hist):
    """``(upper_bound, cumulative_count)`` pairs of the unlabelled sample."""
    ((_, cell),) = hist.samples()
    return list(zip(hist.buckets, cell.cumulative()))


class TestCounter:
    def test_starts_at_zero(self):
        assert dict(Counter("c", "help").samples()) == {}

    def test_inc_default_amount(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc()
        assert dict(counter.samples()) == {(): 2.0}

    def test_labels_partition_the_series(self):
        counter = Counter("c", "help")
        counter.inc(server="a")
        counter.inc(server="a")
        counter.inc(server="b")
        assert dict(counter.samples()) == {(("server", "a"),): 2.0,
                                           (("server", "b"),): 1.0}

    def test_label_order_does_not_matter(self):
        counter = Counter("c", "help")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert dict(counter.samples()) == {(("a", "1"), ("b", "2")): 2.0}

    def test_negative_increment_rejected(self):
        counter = Counter("c", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_samples_enumerate_all_series(self):
        counter = Counter("c", "help")
        counter.inc(server="a")
        counter.inc(server="b", amount=2.5)
        samples = dict(counter.samples())
        assert samples[(("server", "a"),)] == 1.0
        assert samples[(("server", "b"),)] == 2.5


class TestHistogram:
    def test_default_buckets_end_in_inf(self):
        assert DEFAULT_BUCKETS[-1] == math.inf

    def test_observe_counts_and_sums(self):
        hist = Histogram("h", "help", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        ((_, cell),) = hist.samples()
        assert cell.count == 3
        assert cell.total == pytest.approx(105.5)

    def test_cumulative_buckets(self):
        hist = Histogram("h", "help", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        cumulative = dict(cumulative_buckets(hist))
        assert cumulative[1.0] == 1
        assert cumulative[10.0] == 2
        assert cumulative[math.inf] == 3

    def test_inf_bucket_always_present(self):
        hist = Histogram("h", "help", buckets=(5.0,))
        hist.observe(999.0)
        assert dict(cumulative_buckets(hist))[math.inf] == 1

    def test_labelled_histograms(self):
        hist = Histogram("h", "help", buckets=(10.0,))
        hist.observe(1.0, site="edge")
        hist.observe(2.0, site="cloud")
        counts = {key: cell.count for key, cell in hist.samples()}
        # One series per label set; the unlabelled series is untouched.
        assert counts == {(("site", "cloud"),): 1, (("site", "edge"),): 1}


class TestBucketCell:
    @pytest.mark.parametrize("value, bucket", [
        (10.0, 10.0),                          # equal to a bound
        (math.nextafter(10.0, 0.0), 10.0),     # just below it
        (math.nextafter(10.0, 20.0), 20.0),    # just above it
        (5000.5, math.inf),                    # past the last finite bound
    ])
    def test_every_route_lands_the_same_buckets(self, value, bucket):
        values = [0.3, value, 3.0, 250.0, value]
        observed = BucketCell()
        for each in values:
            observed.observe(each)
        built = BucketCell.from_values(values)
        halves = BucketCell.from_values(values[:2])
        halves.merge(BucketCell.from_values(values[2:]))
        hist = Histogram("h", "help")
        for each in values:
            hist.observe(each)
        assert observed.counts == built.counts == halves.counts
        assert observed.counts[DEFAULT_BUCKETS.index(bucket)] == 2
        for cell in (observed, built, halves):
            assert cell.cumulative()[-1] == cell.count == len(values)
        assert cumulative_buckets(hist) == list(
            zip(DEFAULT_BUCKETS, observed.cumulative()))

    def test_merge_rejects_another_layout(self):
        with pytest.raises(ValueError):
            BucketCell().merge(BucketCell((1.0, math.inf)))

    def test_exported_forms_round_trip(self):
        cell = BucketCell.from_values([3.0, 12.0, 12.5, 9000.0])
        listed = [(bound, held)
                  for bound, held in zip(cell.bounds, cell.counts) if held]
        sparse = BucketCell.from_sparse(listed, cell.count, cell.total)
        full = BucketCell.from_running(
            cell.bounds, cell.cumulative(), cell.count, cell.total)
        for rebuilt in (sparse, full):
            assert rebuilt.counts == cell.counts
            assert rebuilt.quantile(50.0) == cell.quantile(50.0) == 15.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", "help")
        second = registry.counter("requests", "other help ignored")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError):
            registry.histogram("x", "help")

    def test_len_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("a", "help")
        registry.histogram("b", "help")
        assert len(registry) == 2
        assert [instrument.name for instrument
                in registry.instruments()] == ["a", "b"]

    def test_instruments_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz", "help")
        registry.counter("aa", "help")
        names = [instrument.name for instrument in registry.instruments()]
        assert names == sorted(names)
