"""Tests for the span tracer: lifecycle, parenting, bounds."""

from types import SimpleNamespace

from repro.telemetry.trace import TraceContext, Tracer


def make_tracer(now=0.0):
    """A tracer bound to a fake clock (``clock.now`` is settable)."""
    clock = SimpleNamespace(now=now)
    tracer = Tracer()
    tracer.bind_clock_source(clock)
    return tracer, clock


class TestLifecycle:
    def test_begin_end_records_duration(self):
        tracer, clock = make_tracer()
        span = tracer.begin("lookup", "measure", "driver")
        clock.now = 12.5
        tracer.end(span)
        assert (span.start_ms, span.end_ms) == (0.0, 12.5)
        assert tracer.finished == [span]

    def test_end_merges_attrs(self):
        tracer, clock = make_tracer()
        span = tracer.begin("lookup", "measure", "driver", qname="x.test")
        tracer.end(span, status="NOERROR")
        assert span.attrs == {"qname": "x.test", "status": "NOERROR"}

    def test_end_is_idempotent(self):
        tracer, clock = make_tracer()
        span = tracer.begin("lookup", "measure", "driver")
        clock.now = 5.0
        tracer.end(span)
        clock.now = 9.0
        tracer.end(span)  # second end must not move the clock or re-record
        assert span.end_ms == 5.0
        assert len(tracer.finished) == 1

    def test_add_records_explicit_times(self):
        tracer, _ = make_tracer()
        span = tracer.add("transit", "net", "pgw", start_ms=3.0, end_ms=7.0)
        assert (span.start_ms, span.end_ms) == (3.0, 7.0)
        assert span in tracer.finished

    def test_event_is_zero_duration(self):
        tracer, clock = make_tracer(now=42.0)
        span = tracer.event("deliver", "net", "host-a")
        assert span.start_ms == span.end_ms == 42.0

    def test_open_span_not_in_finished(self):
        tracer, _ = make_tracer()
        span = tracer.begin("lookup", "measure", "driver")
        assert span.end_ms is None
        assert tracer.finished == []


class TestParenting:
    def test_root_spans_get_fresh_traces(self):
        tracer, _ = make_tracer()
        first = tracer.begin("a", "c", "t")
        second = tracer.begin("b", "c", "t")
        assert first.trace_id != second.trace_id
        assert first.parent_id is None

    def test_child_joins_parent_trace(self):
        tracer, _ = make_tracer()
        parent = tracer.begin("outer", "c", "t")
        child = tracer.begin("inner", "c", "t", parent=parent)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_context_parents_like_the_span(self):
        tracer, _ = make_tracer()
        parent = tracer.begin("outer", "c", "t")
        ctx = parent.context
        assert isinstance(ctx, TraceContext)
        child = tracer.begin("inner", "c", "t", parent=ctx)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_span_ids_are_unique(self):
        tracer, _ = make_tracer()
        spans = [tracer.begin("s", "c", "t") for _ in range(10)]
        assert len({span.span_id for span in spans}) == 10

    def test_spans_for_filters_by_trace(self):
        tracer, _ = make_tracer()
        root_a = tracer.begin("a", "c", "t")
        root_b = tracer.begin("b", "c", "t")
        tracer.end(root_a)
        tracer.end(root_b)
        assert [span for span in tracer.finished
                if span.trace_id == root_a.trace_id] == [root_a]
        assert {span.trace_id for span in tracer.finished} == \
            {root_a.trace_id, root_b.trace_id}


class TestDisabled:
    def test_end_of_none_is_noop(self):
        tracer = Tracer()
        tracer.end(None, status="ignored")  # must not raise
        assert tracer.finished == []


class TestBounds:
    def test_max_spans_drops_overflow(self):
        tracer, _ = make_tracer()
        tracer.max_spans = 2
        for _ in range(5):
            tracer.event("e", "c", "t")
        assert len(tracer.finished) == 2
        assert tracer.dropped == 3


def trial_batch():
    """A finished trial's spans: two traces, a child that finished
    before its parent, so the highest span id is not the last span's."""
    tracer, clock = make_tracer()
    root = tracer.begin("lookup", "measure", "driver", q="a")
    clock.now = 1.0
    tracer.event("hop", "net", "link", parent=root)
    tracer.end(root)
    tracer.event("other", "measure", "driver")
    return tracer.finished


def ids(spans):
    return [(span.trace_id, span.span_id, span.parent_id) for span in spans]


class TestAbsorb:
    def test_the_session_adopts_the_spans_with_remapped_ids(self):
        session, _ = make_tracer()
        session.event("local", "c", "t")
        batch = trial_batch()
        assert ids(batch) == [(1, 2, 1), (1, 1, None), (2, 3, None)]
        attrs = [span.attrs for span in batch]
        session.absorb(batch)
        adopted = session.finished[1:]
        assert len(adopted) == len(batch)
        assert all(mine is theirs for mine, theirs in zip(adopted, batch))
        assert all(span.attrs is held for span, held in zip(adopted, attrs))
        # Shifted past the session's (1, 1): parents move with the spans.
        assert ids(adopted) == [(2, 3, 2), (2, 2, None), (3, 4, None)]
        assert session.id_offsets() == (3, 4)

    def test_two_merged_batches_get_disjoint_ids(self):
        session = Tracer()
        first, second = trial_batch(), trial_batch()
        session.absorb(first)
        session.absorb(second)
        assert ids(first) == [(1, 2, 1), (1, 1, None), (2, 3, None)]
        assert ids(second) == [(3, 5, 4), (3, 4, None), (4, 6, None)]
        assert session.id_offsets() == (4, 6)
