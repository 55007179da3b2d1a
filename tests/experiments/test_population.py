"""Tests for the population-scale artifact (repro.experiments.population)."""

import pytest

from repro.experiments.population import (EXPERIMENT, PopulationExperiment,
                                          PopulationResult)
from repro.runtime import result_digest
from repro.workload.arrivals import DiurnalProfile

#: Cheap single-deployment overrides shared by the behavioural tests.
SMALL = dict(target_queries=400, districts=1, catalog=2_000,
             cache_capacity=50, deployment="mec-ldns-mec-cdns")


@pytest.fixture(scope="module")
def small_result():
    return EXPERIMENT.run_serial(**SMALL)


class TestPlanning:
    def test_full_grid_is_deployments_times_districts(self):
        specs = EXPERIMENT.trials(EXPERIMENT.resolve_params())
        assert len(specs) == 6 * 2  # six deployments, two districts

    def test_unknown_deployment_rejected_in_the_planner(self):
        params = EXPERIMENT.resolve_params({"deployment": "carrier-pigeon"})
        with pytest.raises(ValueError):
            EXPERIMENT.trials(params)

    def test_bad_allocation_rejected_in_the_planner(self):
        params = EXPERIMENT.resolve_params({"allocation": "round-robin"})
        with pytest.raises(ValueError):
            EXPERIMENT.trials(params)

    def test_window_activity_factor(self):
        flat = PopulationExperiment._window_activity(
            DiurnalProfile([1.0] * 24), 18 * 3600.0, 3600.0)
        assert flat == pytest.approx(1.0)
        profile = DiurnalProfile()
        evening = PopulationExperiment._window_activity(
            profile, 18 * 3600.0, 3600.0)
        # The evening window runs hotter than the day average — this
        # factor is what keeps ``target_queries`` honest.
        assert evening == pytest.approx(profile.hourly[18] / profile.mean)
        assert evening > 1.3
        # A window straddling two buckets averages them.
        straddle = PopulationExperiment._window_activity(
            profile, 17.5 * 3600.0, 3600.0)
        expected = (0.5 * profile.hourly[17] + 0.5 * profile.hourly[18]) \
            / profile.mean
        assert straddle == pytest.approx(expected)


class TestResult:
    def test_query_volume_lands_near_target(self, small_result):
        row = small_result.row("mec-ldns-mec-cdns")
        assert row.queries == pytest.approx(SMALL["target_queries"],
                                            rel=0.35)

    def test_localized_row_shape(self, small_result):
        row = small_result.row("mec-ldns-mec-cdns")
        assert row.localization == 1.0
        assert 0.0 < row.hit_rate < 1.0
        assert row.dns.p50 < 20.0
        assert row.total.p50 > row.dns.p50
        assert row.sessions > 0
        assert row.active_ues > 0

    def test_row_lookup_raises_on_missing_key(self, small_result):
        with pytest.raises(KeyError):
            small_result.row("google-dns")

    def test_render_mentions_the_grid(self, small_result):
        text = small_result.render()
        assert "Population scale" in text
        assert "MEC L-DNS w/ MEC C-DNS" in text
        assert "allocation=content" in text

    def test_serial_reruns_are_digest_identical(self, small_result):
        again = EXPERIMENT.run_serial(**SMALL)
        assert result_digest(again) == result_digest(small_result)
        assert again.render() == small_result.render()


class TestShapeClaims:
    def test_small_run_passes_the_structural_claims(self, small_result):
        assert EXPERIMENT.check_shape(small_result) == []

    def test_empty_rows_are_flagged(self, small_result):
        row = small_result.rows[0]._replace(queries=0)
        broken = PopulationResult(
            rows=[row], target_queries=small_result.target_queries,
            districts=small_result.districts, sites=small_result.sites,
            allocation=small_result.allocation,
            catalog=small_result.catalog)
        assert any(violation.endswith("queries: 0 not > 0")
                   for violation in EXPERIMENT.check_shape(broken))

    def test_delocalized_mec_row_is_flagged(self, small_result):
        row = small_result.row("mec-ldns-mec-cdns")._replace(
            localization=0.4)
        broken = PopulationResult(
            rows=[row], target_queries=small_result.target_queries,
            districts=small_result.districts, sites=small_result.sites,
            allocation=small_result.allocation,
            catalog=small_result.catalog)
        assert any("localization" in violation
                   for violation in EXPERIMENT.check_shape(broken))

    @pytest.mark.parametrize("seed", [5, 10, 12])
    def test_p50_in_the_bin_straddling_20ms_is_not_a_violation(self, seed):
        # The bench grid at scale 0.1: the LAN C-DNS p50 lands in the
        # 19.6-21.1 ms bin at these seeds, whose midpoint prints 20.3.
        result = EXPERIMENT.run_serial(
            target_queries=20_000, deployment="all",
            allocation="client-bounded", seed=seed)
        assert result.row("mec-ldns-lan-cdns").dns.p50 > 20.0
        assert EXPERIMENT.check_shape(result) == []

    def test_p50_bin_wholly_above_20ms_is_flagged(self, small_result):
        row = small_result.row("mec-ldns-mec-cdns")
        row = row._replace(dns=row.dns._replace(p50=21.9))
        broken = small_result._replace(rows=[row])
        assert any(violation.startswith("mec-ldns-mec-cdns dns p50 bin floor")
                   for violation in EXPERIMENT.check_shape(broken))
