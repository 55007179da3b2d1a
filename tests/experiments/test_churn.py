"""Tests for the chaos grid: faults, control-plane churn and handover."""

import pytest

from repro.core.deployments import DEPLOYMENT_KEYS, build_testbed
from repro.experiments.churn import (DEADLINE_MS, EXPERIMENT,
                                     FAULT_DEPLOYMENT, MODES, SCENARIOS,
                                     WARMED_DEPLOYMENTS, WARMUP_QUERIES,
                                     run_lookups)
from repro.netsim.engine import ProcessFailed
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver

CHURN_FAULTS = ("cdns-crash", "mec-partition", "origin-brownout")


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(queries=40, seed=42)


class TestChurnGrid:
    def test_grid_covers_every_cell(self, result):
        # Churn: 6 churn-only deployment cells + 3 fault scenarios x 2
        # modes.  Static: 6 deployments x 2 modes for the C-DNS crash,
        # 2 cells each for the partition and burst-loss scenarios.  (The
        # two replay cells add digests, not rows.)
        assert len(result.rows) == 28
        cells = {(row.scenario, row.deployment, row.mode)
                 for row in result.rows}
        assert len(cells) == 28  # row() finds each cell once
        assert {row.scenario for row in result.rows} == \
            {scenario.name for scenario in SCENARIOS}
        assert {row.mode for row in result.rows} == set(MODES)
        for scenario in ("churn-only", "static-cdns-crash"):
            assert {row.deployment for row in result.rows
                    if row.scenario == scenario} == set(DEPLOYMENT_KEYS)

    def test_row_lookup(self, result):
        row = result.row("mec-partition", FAULT_DEPLOYMENT, "baseline")
        assert row.mode == "baseline"
        row = result.row("static-cdns-crash", FAULT_DEPLOYMENT, "resilient")
        assert row.scenario == "static-cdns-crash"
        with pytest.raises(KeyError):
            result.row("churn-only", "no-such-deployment", "resilient")

    def test_shape_claims_hold_at_full_fidelity(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_a_missing_cell_raises_like_any_other_row_lookup(self, result):
        broken = result._replace(rows=[
            row for row in result.rows
            if (row.scenario, row.deployment) != ("churn-only",
                                                  "mec-ldns-lan-cdns")])
        with pytest.raises(KeyError):
            EXPERIMENT.check_shape(broken)

    def test_every_cell_sees_the_full_schedule_and_handover(self, result):
        churned = {scenario.name for scenario in SCENARIOS
                   if scenario.churn}
        for row in result.rows:
            if row.scenario in churned:
                assert row.updates == 3
                assert row.handoffs == 1
                assert row.post_handoff_lookups > 0
            else:
                assert (row.updates, row.handoffs) == (0, 0)

    def test_integrated_design_beats_warmed_resolvers(self, result):
        integrated = result.row("churn-only", FAULT_DEPLOYMENT,
                                "resilient")
        for deployment in WARMED_DEPLOYMENTS:
            warmed = result.row("churn-only", deployment, "resilient")
            assert warmed.misloc_rate > integrated.misloc_rate
            assert warmed.max_staleness_ms > integrated.max_staleness_ms

    def test_serve_stale_during_churn_needs_resilience(self, result):
        for scenario in CHURN_FAULTS:
            baseline = result.row(scenario, FAULT_DEPLOYMENT, "baseline")
            assert baseline.stale_during_churn == 0

    def test_stale_answers_only_in_resilient_cells(self, result):
        for row in result.rows:
            if row.mode == "baseline":
                assert row.stale_answers == 0

    def test_partition_forces_axfr_fallback(self, result):
        for mode in MODES:
            row = result.row("mec-partition", FAULT_DEPLOYMENT, mode)
            assert row.axfr_fallbacks >= 1

    def test_faulted_cells_recorded_timelines(self, result):
        for scenario in ("static-cdns-crash", "static-mec-partition"):
            assert result.timelines[
                f"{scenario}/{FAULT_DEPLOYMENT}/baseline"] != []
        # The warmed-resolver deployments have no C-DNS to crash: their
        # timeline is empty by design, not by omission.
        assert result.timelines["static-cdns-crash/google-dns/baseline"] \
            == []

    def test_render_is_complete(self, result):
        text = result.render()
        for token in ([scenario.name for scenario in SCENARIOS]
                      + ["avail", "stale", "fallback", "misloc", "stale ms",
                         "prop ms", "rfc8767", "axfr-fb", "ho-mis",
                         f"deadline {DEADLINE_MS:.0f} ms", "(no faults)"]):
            assert token in text

    def test_rates_are_fractions(self, result):
        for row in result.rows:
            assert 0.0 <= row.availability <= 1.0
            assert 0.0 <= row.misloc_rate <= 1.0
            assert row.answered <= row.queries
            assert row.mislocalized_in_window <= row.lookups_in_window
            assert row.mislocalized_after_handoff <= \
                row.post_handoff_lookups


class TestDeterminism:
    def test_replay_digests_match_byte_for_byte(self, result):
        assert result.replays
        for first, second in result.replays.values():
            assert first == second

    def test_identical_seeds_reproduce_the_whole_grid(self):
        first = EXPERIMENT.run_serial(queries=4, seed=9)
        second = EXPERIMENT.run_serial(queries=4, seed=9)
        assert first.timelines == second.timelines
        assert first.rows == second.rows

    def test_different_seeds_change_measurements(self):
        first = EXPERIMENT.run_serial(queries=4, seed=9)
        second = EXPERIMENT.run_serial(queries=4, seed=10)
        assert first.rows != second.rows


def _blackholed_testbed():
    """An all-MEC testbed whose UE is partitioned from everything."""
    testbed = build_testbed("mec-ldns-mec-cdns", seed=0)
    testbed.network.partition([testbed.ue.host.name])
    return testbed


class TestRunLookups:
    """The client accounting must count the transmissions the stub
    *actually* issued, not the policy's configured ceiling: with hedging
    enabled the two differ, and under faults the real count is the
    datum the grid publishes."""

    def test_attempts_count_real_transmissions_including_hedges(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=2, timeout_ms=100.0,
                             hedge_after_ms=10.0)
        lookups, _, mean_attempts = run_lookups(
            testbed, testbed.ue.stub(policy), 1)
        assert len(lookups) == 1
        assert lookups[0].status == "TIMEOUT"
        assert lookups[0].addresses == ()
        # 3 attempts (retries=2) plus the first attempt's hedge: the
        # policy ceiling alone would claim 3.
        assert mean_attempts == 4.0

    def test_attempts_are_per_lookup_not_cumulative(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=1, timeout_ms=50.0)
        lookups, _, mean_attempts = run_lookups(
            testbed, testbed.ue.stub(policy), 2)
        assert len(lookups) == 2
        assert mean_attempts == 2.0

    def test_timeouts_seen_matches_transmissions(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=2, timeout_ms=100.0,
                             hedge_after_ms=10.0)
        lookups, timeouts, mean_attempts = run_lookups(
            testbed, testbed.ue.stub(policy), 1)
        # Every transmission burned a timeout (hedge included), in every
        # lookup the stub made, warmup too.
        assert timeouts >= (mean_attempts - 1) * (WARMUP_QUERIES + 1)

    def test_programming_error_in_the_client_fails_the_run(self):
        # A TIMEOUT lookup is for what a lookup is documented to raise
        # (QueryTimeout, WireFormatError); anything else is a bug and
        # must surface as one, not be scored as an unavailable resolver.
        testbed = build_testbed("mec-ldns-mec-cdns", seed=0)

        class BrokenStub(StubResolver):
            def query(self, *args, **kwargs):
                raise RuntimeError("bug in the client")
                yield  # pragma: no cover - generator marker

        stub = BrokenStub(testbed.network, testbed.ue.host, testbed.ue.dns)
        with pytest.raises(ProcessFailed) as excinfo:
            run_lookups(testbed, stub, 1)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
