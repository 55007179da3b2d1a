"""Tests for the future race combinator behind the multicast fallback."""

import pytest

from repro.errors import QueryTimeout, SimulationError
from repro.netsim.engine import Simulator
from tests.netsim.test_engine import timer


class TestFirstSuccess:
    def test_fastest_success_wins(self):
        sim = Simulator()
        combined = sim.first_success([timer(sim, 30, "slow"),
                                      timer(sim, 10, "fast")])
        assert sim.run_until_resolved(combined) == "fast"
        assert sim.now == 10

    def test_failure_does_not_win(self):
        sim = Simulator()
        failing = sim.future()
        sim.call_after(5, lambda: failing.fail(QueryTimeout("early fail")))
        combined = sim.first_success([failing, timer(sim, 20, "late ok")])
        assert sim.run_until_resolved(combined) == "late ok"
        assert sim.now == 20

    def test_all_failures_fail_combined(self):
        sim = Simulator()
        futures = []
        for delay in (5, 10):
            fut = sim.future()
            sim.call_after(delay,
                           lambda f=fut: f.fail(QueryTimeout("dead")))
            futures.append(fut)
        combined = sim.first_success(futures)
        with pytest.raises(QueryTimeout):
            sim.run_until_resolved(combined)

    def test_single_future(self):
        sim = Simulator()
        combined = sim.first_success([timer(sim, 3, 42)])
        assert sim.run_until_resolved(combined) == 42

    def test_empty_list_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.first_success([])

    def test_later_results_ignored(self):
        sim = Simulator()
        futures = [timer(sim, 1, "first"), timer(sim, 2, "second")]
        combined = sim.first_success(futures)
        sim.run()
        assert combined.result() == "first"
