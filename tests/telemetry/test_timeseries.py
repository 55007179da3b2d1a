"""Tests for the streaming time-series (windowed counters/latencies)."""

import json

import pytest

from repro.telemetry.metrics import BucketCell
from repro.telemetry.timeseries import TimeSeries


def counter_windows(series, name):
    """``{labels-tuple: {window index: value}}`` of one counter series."""
    return {tuple(sorted(entry["labels"].items())):
            {window["index"]: window["value"] for window in entry["windows"]}
            for entry in series.to_dict()["series"]
            if entry["name"] == name and entry["kind"] == "counter"}


class TestRecording:
    def test_window_index(self):
        series = TimeSeries(window_ms=250.0)
        for t_ms in (0.0, 249.9, 250.0, 1000.0):
            series.count("q", t_ms)
        assert counter_windows(series, "q") == {(): {0: 2.0, 1: 1.0, 4: 1.0}}

    def test_counts_accumulate_per_window_and_label(self):
        series = TimeSeries(window_ms=100.0)
        series.count("hits", 10.0, site="a")
        series.count("hits", 20.0, site="a")
        series.count("hits", 150.0, site="a")
        series.count("hits", 10.0, site="b")
        windows = counter_windows(series, "hits")
        assert windows[(("site", "a"),)] == {0: 2.0, 1: 1.0}
        assert windows[(("site", "b"),)] == {0: 1.0}

    def test_observe_builds_count_sum_buckets(self):
        series = TimeSeries(window_ms=100.0)
        series.observe("lat", 50.0, 3.0)
        series.observe("lat", 60.0, 7.0)
        (window,) = series.to_dict()["series"][0]["windows"]
        assert window["count"] == 2
        assert window["sum"] == 10.0
        assert window["buckets"] == [[5.0, 1], [10.0, 1]]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_ms=0.0)

    def test_empty_property(self):
        series = TimeSeries()
        assert series.empty
        series.count("x", 0.0)
        assert not series.empty


class TestBulkIngestion:
    def test_bulk_count_equals_loop(self):
        loop, bulk = TimeSeries(window_ms=100.0), TimeSeries(window_ms=100.0)
        for window, value in ((0, 3.0), (2, 1.0)):
            for _ in range(int(value)):
                loop.count("q", window * 100.0, site="s")
        bulk.bulk_count("q", {"site": "s"}, {0: 3.0, 2: 1.0})
        assert loop.to_dict() == bulk.to_dict()

    def test_bulk_observe_equals_loop(self):
        loop, bulk = TimeSeries(window_ms=100.0), TimeSeries(window_ms=100.0)
        cell = BucketCell()
        for value in (2.0, 9.0, 45.0):
            loop.observe("lat", 50.0, value, site="s")
            cell.observe(value)
        bulk.bulk_observe("lat", {"site": "s"}, {0: cell})
        assert loop.to_dict() == bulk.to_dict()


class TestMerge:
    def test_sharded_merge_equals_serial(self):
        serial = TimeSeries(window_ms=100.0)
        shards = [TimeSeries(window_ms=100.0) for _ in range(3)]
        events = [(i * 37.0 % 1000.0, float(i % 5)) for i in range(60)]
        for index, (t_ms, value) in enumerate(events):
            serial.count("q", t_ms, site="s")
            serial.observe("lat", t_ms, value, site="s")
            shards[index % 3].count("q", t_ms, site="s")
            shards[index % 3].observe("lat", t_ms, value, site="s")
        serial.annotate(500.0, "churn", detail="rollout", scope="site-0")
        shards[1].annotate(500.0, "churn", detail="rollout", scope="site-0")
        merged = TimeSeries(window_ms=100.0)
        for shard in shards:
            merged.merge_from(shard)
        assert json.dumps(merged.to_dict(), sort_keys=True) == \
            json.dumps(serial.to_dict(), sort_keys=True)

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_ms=100.0).merge_from(TimeSeries(window_ms=50.0))


class TestBounds:
    def test_old_windows_pruned(self):
        series = TimeSeries(window_ms=100.0, max_windows=4)
        for window in range(10):
            series.count("q", window * 100.0)
        assert sorted(counter_windows(series, "q")[()]) == [6, 7, 8, 9]

    def test_annotations_capped_earliest_kept(self):
        series = TimeSeries(max_annotations=3)
        for at in (5.0, 1.0, 4.0, 2.0, 3.0):
            series.annotate(at, "e")
        assert [a[0] for a in series.annotations()] == [1.0, 2.0, 3.0]


class TestDocument:
    def test_format_marker_and_shape(self):
        series = TimeSeries(window_ms=250.0)
        series.count("repro_workload_queries", 260.0,
                     deployment="mec-ldns-mec-cdns")
        series.observe("repro_workload_total_ms", 260.0, 12.0,
                       deployment="mec-ldns-mec-cdns")
        series.annotate(100.0, "zone_update", detail="serial=2", scope="z")
        document = series.to_dict()
        assert document["format"] == "repro-timeseries-v1"
        assert document["window_ms"] == 250.0
        counter, latency = document["series"]
        assert counter["kind"] == "counter"
        assert counter["windows"] == [
            {"index": 1, "start_ms": 250.0, "value": 1.0}]
        assert latency["kind"] == "latency"
        (window,) = latency["windows"]
        assert window["count"] == 1
        assert window["sum"] == 12.0
        # Zero buckets are omitted; only the one holding 12.0 remains.
        assert len(window["buckets"]) == 1
        assert document["annotations"] == [
            {"t_ms": 100.0, "name": "zone_update", "detail": "serial=2",
             "scope": "z"}]

    def test_infinite_bucket_serialized_as_string(self):
        series = TimeSeries(window_ms=100.0)
        series.observe("lat", 0.0, 10 ** 6)  # beyond every finite bucket
        document = series.to_dict()
        (window,) = document["series"][0]["windows"]
        assert window["buckets"] == [["+Inf", 1]]
        # The document must survive strict JSON round-tripping.
        assert json.loads(json.dumps(document)) == document
