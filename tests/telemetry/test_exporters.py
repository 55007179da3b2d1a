"""Tests for the Chrome trace and JSON artifact exporters."""

import json
from types import SimpleNamespace

from repro.telemetry.exporters import (
    to_chrome_trace,
    to_json_artifact,
    write_chrome_trace,
    write_json_artifact,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer


def populated_registry():
    """A registry with one of each instrument kind."""
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "queries").inc(server="mec")
    registry.counter("repro_queries_total", "queries").inc(server="mec")
    hist = registry.histogram("repro_latency_ms", "latency",
                              buckets=(10.0, 100.0))
    hist.observe(5.0)
    hist.observe(50.0)
    return registry


def finished_spans():
    """Two finished spans on two tracks plus one still-open span."""
    tracer = Tracer()
    clock = SimpleNamespace(now=0.0)
    tracer.bind_clock_source(clock)
    root = tracer.begin("lookup", "measure", "driver", qname="x.test")
    tracer.add("transit", "net", "pgw", start_ms=1.0, end_ms=3.5,
               parent=root)
    clock.now = 10.0
    tracer.end(root, status="NOERROR")
    tracer.begin("never-finished", "measure", "driver")
    return tracer.finished


class TestChromeTrace:
    def test_document_is_json_serializable(self):
        document = to_chrome_trace(finished_spans())
        parsed = json.loads(json.dumps(document))
        assert parsed["displayTimeUnit"] == "ms"

    def test_complete_events_in_microseconds(self):
        document = to_chrome_trace(finished_spans())
        complete = [event for event in document["traceEvents"]
                    if event["ph"] == "X"]
        assert len(complete) == 2  # the open span is excluded
        transit = next(event for event in complete
                       if event["name"] == "transit")
        assert transit["ts"] == 1000.0
        assert transit["dur"] == 2500.0

    def test_thread_metadata_per_track(self):
        document = to_chrome_trace(finished_spans())
        thread_names = {event["args"]["name"]
                        for event in document["traceEvents"]
                        if event["ph"] == "M"
                        and event["name"] == "thread_name"}
        assert thread_names == {"driver", "pgw"}

    def test_span_identity_in_args(self):
        document = to_chrome_trace(finished_spans())
        transit = next(event for event in document["traceEvents"]
                       if event["ph"] == "X" and event["name"] == "transit")
        assert "trace_id" in transit["args"]
        assert "parent_id" in transit["args"]

    def test_events_sorted_by_timestamp(self):
        document = to_chrome_trace(finished_spans())
        stamps = [event["ts"] for event in document["traceEvents"]
                  if event["ph"] == "X"]
        assert stamps == sorted(stamps)

    def test_write_produces_loadable_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(finished_spans(), str(path))
        parsed = json.loads(path.read_text())
        assert any(event["ph"] == "X" for event in parsed["traceEvents"])


class TestJsonArtifact:
    def test_format_marker_and_metrics(self):
        document = to_json_artifact(populated_registry())
        assert document["format"] == "repro-telemetry-v1"
        names = {entry["name"] for entry in document["metrics"]}
        assert "repro_queries_total" in names

    def test_histogram_samples_json_safe(self):
        document = to_json_artifact(populated_registry())
        json.dumps(document)  # must not raise on the +Inf bound
        hist = next(entry for entry in document["metrics"]
                    if entry["name"] == "repro_latency_ms")
        bounds = [bucket["le"] for bucket in hist["samples"][0]["buckets"]]
        assert bounds[-1] == "+Inf"

    def test_span_rollup(self):
        document = to_json_artifact(populated_registry(),
                                    spans=finished_spans())
        assert document["spans"]["count"] == 2
        assert document["spans"]["traces"] == 1
        by_name = {entry["name"]: entry
                   for entry in document["spans"]["by_name"]}
        assert by_name["transit"]["count"] == 1

    def test_meta_passthrough(self):
        document = to_json_artifact(MetricsRegistry(),
                                    meta={"experiment": "figure5"})
        assert document["meta"] == {"experiment": "figure5"}

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_json_artifact(populated_registry(), str(path))
        parsed = json.loads(path.read_text())
        assert parsed["format"] == "repro-telemetry-v1"


class TestArtifactSections:
    def test_timeseries_section_embeds_the_document(self):
        from repro.telemetry.timeseries import TimeSeries
        series = TimeSeries(window_ms=500.0)
        series.count("repro_workload_queries", 600.0, deployment="d")
        document = to_json_artifact(MetricsRegistry(), timeseries=series)
        assert document["timeseries"]["format"] == "repro-timeseries-v1"
        assert document["timeseries"]["window_ms"] == 500.0

    def test_empty_timeseries_omitted(self):
        from repro.telemetry.timeseries import TimeSeries
        document = to_json_artifact(MetricsRegistry(),
                                    timeseries=TimeSeries())
        assert "timeseries" not in document

    def test_exemplars_section_slowest_first_and_round_trips(self):
        from repro.telemetry.sampling import Exemplar, TailReservoir
        tail = TailReservoir(4)
        for total in (30.0, 90.0, 60.0):
            tail.offer(Exemplar(key=f"q{total}", total_ms=total, t_ms=0.0,
                                stages=(("dns", total),)))
        document = to_json_artifact(MetricsRegistry(), tail=tail)
        totals = [entry["total_ms"] for entry in document["exemplars"]]
        assert totals == [90.0, 60.0, 30.0]
        rebuilt = [Exemplar.from_dict(entry)
                   for entry in document["exemplars"]]
        assert rebuilt == tail.items()

    def test_empty_tail_omitted(self):
        from repro.telemetry.sampling import TailReservoir
        document = to_json_artifact(MetricsRegistry(),
                                    tail=TailReservoir(4))
        assert "exemplars" not in document

    def test_write_round_trip_with_sections(self, tmp_path):
        from repro.telemetry.sampling import Exemplar, TailReservoir
        from repro.telemetry.timeseries import TimeSeries
        series = TimeSeries(window_ms=500.0)
        series.observe("repro_workload_total_ms", 100.0, 12.0,
                       deployment="d")
        tail = TailReservoir(2)
        tail.offer(Exemplar(key="q", total_ms=12.0, t_ms=100.0,
                            stages=(("dns", 12.0),)))
        path = tmp_path / "artifact.json"
        write_json_artifact(populated_registry(), str(path),
                            meta={"executor": {"backend": "serial"}},
                            timeseries=series, tail=tail)
        parsed = json.loads(path.read_text())
        assert parsed["format"] == "repro-telemetry-v1"
        assert parsed["meta"]["executor"]["backend"] == "serial"
        assert parsed["timeseries"]["series"][0]["kind"] == "latency"
        assert parsed["exemplars"][0]["key"] == "q"
