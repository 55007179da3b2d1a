"""Tests for critical-path stage attribution.

The headline acceptance criterion lives here: for **every** trace of a
real figure5 run, the per-stage attribution sums *float-identically* to
``trace_duration`` — exact equality, not ``approx``.
"""

from fractions import Fraction

from repro.profile.criticalpath import (STAGE_BACKHAUL, STAGE_CDNS,
                                        STAGE_CLIENT, STAGE_LDNS_CACHE,
                                        STAGE_OTHER, STAGE_RADIO,
                                        STAGE_UPSTREAM, STAGES, analyze_trace,
                                        trace_segments)
from repro.telemetry.trace import Tracer


def spans_for(tracer, trace_id):
    return [span for span in tracer.finished if span.trace_id == trace_id]


def trace_duration(spans):
    """Wall span of one trace in plain floats: latest end - earliest start."""
    return (max(span.end_ms for span in spans)
            - min(span.start_ms for span in spans))


class TestFloatIdentity:
    def test_every_figure5_trace_sums_exactly(self, figure5_session):
        session, _ = figure5_session
        trace_ids = sorted({span.trace_id for span in session.tracer.finished})
        assert len(trace_ids) >= 36  # six deployments, six queries + warmup
        for trace_id in trace_ids:
            spans = spans_for(session.tracer, trace_id)
            path = analyze_trace(spans, trace_id)
            # Exact identities — no approx, no tolerance.
            assert sum(path.stages.values(), Fraction(0)) == path.total_exact
            assert float(path.total_exact) == trace_duration(spans)

    def test_segments_partition_the_trace(self, figure5_session):
        session, _ = figure5_session
        for trace_id in sorted({span.trace_id for span in session.tracer.finished}):
            spans = spans_for(session.tracer, trace_id)
            segments = trace_segments(spans, trace_id)
            starts = [span.start_ms for span in spans]
            ends = [span.end_ms for span in spans]
            assert segments[0].start_ms == min(starts)
            assert segments[-1].end_ms == max(ends)
            for left, right in zip(segments, segments[1:]):
                assert left.end_ms == right.start_ms
            assert all(segment.width > 0 for segment in segments)
            assert all(segment.stage in STAGES for segment in segments)


class TestFigure5Attribution:
    def test_mec_deployments_show_radio_and_upstream(self, figure5_session):
        session, _ = figure5_session
        from repro.profile.budget import budget_report
        report = budget_report(session.tracer.finished)
        keys = [row.deployment for row in report.rows]
        assert "mec-ldns-mec-cdns" in keys and "google-dns" in keys
        mec = {row.deployment: row for row in report.rows}[
            "mec-ldns-mec-cdns"]
        # The UE's air interface and the on-site recursion both show up.
        assert STAGE_RADIO in mec.stages
        assert STAGE_UPSTREAM in mec.stages
        assert mec.stages[STAGE_RADIO].mean_ms > 0

    def test_wan_resolvers_are_backhaul_dominated(self, figure5_session):
        session, _ = figure5_session
        from repro.profile.budget import budget_report
        report = budget_report(session.tracer.finished)
        rows = {row.deployment: row for row in report.rows}
        google = rows["google-dns"]
        backhaul = google.stages[STAGE_BACKHAUL].mean_ms
        assert backhaul > google.mean_ms / 2
        # And the cloud resolver is far over the MEC one.
        assert google.mean_ms > rows["mec-ldns-mec-cdns"].mean_ms

    def test_counts_match_non_warmup_queries(self, figure5_session):
        session, _ = figure5_session
        from repro.profile.budget import budget_report
        report = budget_report(session.tracer.finished)
        assert [row.count for row in report.rows] == [6] * len(report.rows)


def _synthetic_lookup(tracer):
    """A hand-built lookup trace covering [0, 10] ms.

    lookup/stub.query own the edges; one radio hop, one serve with an
    upstream exchange that itself rides a transit.
    """
    lookup = tracer.add("lookup", "measure", "measure-driver", 0.0, 10.0)
    stub = tracer.add("stub.query", "resolver", "ue-1", 0.0, 10.0,
                      parent=lookup)
    tracer.add("transit", "net", "air-1", 1.0, 3.0, parent=stub,
               **{"from": "ue-1", "to": "enb-1"})
    serve = tracer.add("dns.serve", "resolver", "mec-node-1", 3.0, 9.0,
                       parent=stub)
    upstream = tracer.add("upstream.exchange", "resolver", "mec-node-1",
                          4.0, 8.0, parent=serve)
    tracer.add("transit", "net", "core-1", 5.0, 7.0, parent=upstream,
               **{"from": "mec-node-1", "to": "auth-1"})
    return lookup.trace_id


class TestSyntheticClassification:
    def test_stage_arithmetic_on_known_tree(self):
        tracer = Tracer()
        trace_id = _synthetic_lookup(tracer)
        path = analyze_trace(tracer.finished, trace_id)
        assert path.total_exact == Fraction(10)
        assert path.stages[STAGE_RADIO] == Fraction(2)       # [1, 3]
        assert path.stages[STAGE_CLIENT] == Fraction(2)      # [0, 1] + [9, 10]
        assert path.stages[STAGE_LDNS_CACHE] == Fraction(2)  # [3, 4] + [8, 9]
        # upstream.exchange's own slices plus its transit inherit its stage.
        assert path.stages[STAGE_UPSTREAM] == Fraction(4)    # [4, 8]
        assert sum(path.stages.values(), Fraction(0)) == path.total_exact

    def test_transit_without_client_endpoint_is_backhaul(self):
        tracer = Tracer()
        lookup = tracer.add("lookup", "measure", "measure-driver", 0.0, 4.0)
        tracer.add("transit", "net", "wan-1", 1.0, 3.0, parent=lookup,
                   **{"from": "gw-1", "to": "resolver-1"})
        path = analyze_trace(tracer.finished, lookup.trace_id)
        assert path.stages[STAGE_BACKHAUL] == Fraction(2)

    def test_cdns_track_classification(self):
        tracer = Tracer()
        lookup = tracer.add("lookup", "measure", "measure-driver", 0.0, 4.0)
        tracer.event("cdns.route", "cdn", "cdns-1", parent=lookup)
        tracer.add("cache.serve", "cdn", "cdns-1", 1.0, 3.0, parent=lookup)
        path = analyze_trace(tracer.finished, lookup.trace_id)
        assert path.stages[STAGE_CDNS] == Fraction(2)

    def test_uncovered_gap_is_other(self):
        tracer = Tracer()
        first = tracer.add("dns.serve", "resolver", "host-1", 0.0, 2.0)
        tracer.add("dns.serve", "resolver", "host-1", 5.0, 8.0,
                   parent=first)
        segments = trace_segments(tracer.finished, first.trace_id)
        gap = [segment for segment in segments if segment.owner is None]
        assert len(gap) == 1
        assert gap[0].stage == STAGE_OTHER
        assert (gap[0].start_ms, gap[0].end_ms) == (2.0, 5.0)
        path = analyze_trace(tracer.finished, first.trace_id)
        assert path.total_exact == Fraction(8)
        assert any(step.what == "(gap)" for step in path.steps)

    def test_equal_depth_tie_breaks_to_later_span(self):
        tracer = Tracer()
        root = tracer.add("lookup", "measure", "measure-driver", 0.0, 4.0)
        tracer.add("dns.serve", "resolver", "host-1", 1.0, 3.0, parent=root)
        late = tracer.add("upstream.exchange", "resolver", "host-1",
                          1.0, 3.0, parent=root)
        segments = trace_segments(tracer.finished, root.trace_id)
        owners = {segment.owner.span_id for segment in segments
                  if segment.start_ms >= 1.0 and segment.end_ms <= 3.0}
        assert owners == {late.span_id}

    def test_empty_trace_analyzes_to_zero(self):
        path = analyze_trace([], trace_id=1)
        assert path.total_exact == Fraction(0)
        assert path.stages == {} and path.steps == []
