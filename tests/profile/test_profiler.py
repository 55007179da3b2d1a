"""Tests for the deterministic simulated-time profiler."""

from fractions import Fraction

from repro.profile import (analyze_trace, collapsed_stacks, render_collapsed,
                           render_profile, simulated_profile)
from repro.telemetry.trace import Tracer


def _trace_totals(session):
    """Exact summed duration across every trace of the run."""
    total = Fraction(0)
    for trace_id in sorted({span.trace_id for span in session.tracer.finished}):
        total += analyze_trace(session.tracer.finished, trace_id).total_exact
    return total


class TestSimulatedProfile:
    def test_exclusive_sums_to_total_trace_time(self, figure5_session):
        session, _ = figure5_session
        entries = simulated_profile(session.tracer.finished)
        exclusive = sum((entry.exclusive for entry in entries), Fraction(0))
        # Every simulated instant is owned exactly once — the profile's
        # exclusive column telescopes to the exact total, no slack.
        assert exclusive == _trace_totals(session)

    def test_exclusive_never_exceeds_inclusive(self, figure5_session):
        session, _ = figure5_session
        for entry in simulated_profile(session.tracer.finished):
            assert entry.exclusive <= entry.inclusive
            assert entry.count > 0

    def test_rows_sorted_by_exclusive_desc(self, figure5_session):
        session, _ = figure5_session
        entries = simulated_profile(session.tracer.finished)
        keys = [(entry.category, entry.name) for entry in entries]
        assert len(keys) == len(set(keys))
        exclusives = [entry.exclusive for entry in entries]
        assert exclusives == sorted(exclusives, reverse=True)
        # Transit hops dominate a network simulation's timeline.
        assert entries[0].name == "transit"

    def test_profile_is_deterministic(self, figure5_session):
        session, _ = figure5_session
        once = simulated_profile(session.tracer.finished)
        twice = simulated_profile(session.tracer.finished)
        assert once == twice

    def test_render_profile_table(self, figure5_session):
        session, _ = figure5_session
        entries = simulated_profile(session.tracer.finished)
        text = render_profile(entries)
        assert "component" in text and "excl ms" in text
        assert "net/transit" in text
        assert "total (exclusive)" in text
        limited = render_profile(entries, limit=2)
        assert f"... {len(entries) - 2} more rows" in limited


class TestCollapsedStacks:
    def test_stacks_conserve_total_time(self, figure5_session):
        session, _ = figure5_session
        stacks = collapsed_stacks(session.tracer.finished)
        assert sum(stacks.values(), Fraction(0)) == _trace_totals(session)
        # Real ancestry shows up, root first.
        assert any(key.startswith("lookup;stub.query") for key in stacks)

    def test_render_collapsed_format(self, figure5_session):
        session, _ = figure5_session
        text = render_collapsed(collapsed_stacks(session.tracer.finished))
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack
            assert int(value) >= 1

    def test_zero_width_stack_rounds_up_to_one(self):
        tracer = Tracer()
        root = tracer.add("lookup", "measure", "measure-driver", 0.0, 1.0)
        tracer.add("dns.serve", "resolver", "host-1", 0.0, 1.0 - 1e-9,
                   parent=root)
        text = render_collapsed(collapsed_stacks(tracer.finished))
        # The sliver the root owns outright is far below 1 us but must
        # not vanish from the flamegraph.
        assert "lookup 1\n" in text
