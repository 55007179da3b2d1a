"""Tests for the event loop, futures, and generator processes."""

import pytest

from repro.errors import QueryTimeout, SimulationError
from repro.netsim.engine import ProcessFailed, Simulator


def timer(sim, delay, value=None):
    """A future that resolves to ``value`` after ``delay`` ms."""
    fut = sim.future()
    sim.call_after(delay, fut.resolve, value)
    return fut


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_after(10, lambda: order.append("b"))
        sim.call_after(5, lambda: order.append("a"))
        sim.call_after(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.call_after(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.call_after(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.call_after(100, lambda: fired.append(True))
        assert sim.run(until=50) == 50
        assert not fired
        sim.run()
        assert fired

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.call_after(5, inner)

        def inner():
            times.append(sim.now)

        sim.call_after(10, outer)
        sim.run()
        assert times == [10, 15]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(-1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.call_after(10, lambda: sim.call_at(5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def rearm():
            sim.call_after(1, rearm)

        sim.call_soon(rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestFutures:
    def test_resolve_and_result(self):
        sim = Simulator()
        fut = sim.future()
        fut.resolve(42)
        sim.run()
        assert fut.done
        assert fut.result() == 42

    def test_result_before_done_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.future().result()

    def test_fail_stores_error(self):
        sim = Simulator()
        fut = sim.future()
        fut.fail(QueryTimeout("late"))
        with pytest.raises(QueryTimeout):
            fut.result()

    def test_first_resolution_wins(self):
        sim = Simulator()
        fut = sim.future()
        fut.resolve("reply")
        fut.fail(QueryTimeout("late"))
        assert fut.result() == "reply"

    def test_callback_after_done_still_fires(self):
        sim = Simulator()
        fut = sim.future()
        fut.resolve(1)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        sim.run()
        assert seen == [1]

    def test_timer(self):
        sim = Simulator()
        fut = timer(sim, 25, "done")
        assert sim.run_until_resolved(fut) == "done"
        assert sim.now == 25


class TestProcesses:
    def test_yield_delay(self):
        sim = Simulator()

        def process():
            yield 10
            yield 5
            return sim.now

        assert sim.run_until_resolved(sim.spawn(process())) == 15

    def test_yield_future(self):
        sim = Simulator()

        def process():
            value = yield timer(sim, 30, "payload")
            return value

        assert sim.run_until_resolved(sim.spawn(process())) == "payload"

    def test_failed_future_raises_inside_process(self):
        sim = Simulator()
        fut = sim.future()
        sim.call_after(5, lambda: fut.fail(QueryTimeout("boom")))

        def process():
            try:
                yield fut
            except QueryTimeout:
                return "handled"
            return "not reached"

        assert sim.run_until_resolved(sim.spawn(process())) == "handled"

    def test_process_exception_wrapped(self):
        sim = Simulator()

        def process():
            yield 1
            raise ValueError("inner")

        fut = sim.spawn(process())
        with pytest.raises(ProcessFailed) as excinfo:
            sim.run_until_resolved(fut)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_bad_yield_value_fails_process(self):
        sim = Simulator()

        def process():
            yield "not a delay"

        with pytest.raises(ProcessFailed):
            sim.run_until_resolved(sim.spawn(process()))

    def test_processes_interleave(self):
        sim = Simulator()
        order = []

        def worker(tag, delay):
            yield delay
            order.append((tag, sim.now))
            yield delay
            order.append((tag, sim.now))

        sim.spawn(worker("fast", 3))
        sim.spawn(worker("slow", 5))
        sim.run()
        assert order == [("fast", 3), ("slow", 5), ("fast", 6), ("slow", 10)]

    def test_run_until_resolved_detects_starvation(self):
        sim = Simulator()
        never = sim.future()
        with pytest.raises(SimulationError):
            sim.run_until_resolved(never)


class TestSharedDrain:
    """Both entry points run on one stepper; their semantics must hold."""

    def test_run_with_empty_queue_still_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=25) == 25
        assert sim.now == 25

    def test_run_clamps_to_until_after_early_drain(self):
        sim = Simulator()
        sim.call_after(5, lambda: None)
        assert sim.run(until=30) == 30
        assert sim.events_processed == 1

    def test_run_until_resolved_respects_max_events(self):
        sim = Simulator()

        def rearm():
            sim.call_after(1, rearm)

        sim.call_soon(rearm)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run_until_resolved(sim.future(), max_events=100)

    def test_max_events_bounds_each_call_separately(self):
        sim = Simulator()
        for _ in range(3):
            sim.call_soon(lambda: None)
        sim.run(max_events=10)
        for _ in range(3):
            sim.call_soon(lambda: None)
        sim.run(max_events=10)  # would raise if the bound accumulated
        assert sim.events_processed == 6

    def test_events_processed_accumulates_across_entry_points(self):
        sim = Simulator()
        for _ in range(3):
            sim.call_soon(lambda: None)
        sim.run()
        assert sim.run_until_resolved(timer(sim, 5, "done")) == "done"
        assert sim.events_processed == 4

    def test_run_until_resolved_stops_at_resolution(self):
        sim = Simulator()
        fired = []
        fut = timer(sim, 10, "value")
        sim.call_after(20, lambda: fired.append(True))
        assert sim.run_until_resolved(fut) == "value"
        # The later event is still queued; the loop stopped at the future.
        assert not fired
        assert sim.now == 10
