"""Tests for the district engine (repro.workload.engine) and the
deployment calibration bridge (repro.workload.deployment)."""


import pytest

from repro.workload.deployment import calibrate, is_localized
from repro.workload.engine import (DistrictConfig, district_seed,
                                   merge_stats, run_district)

#: A district small enough for unit tests, big enough to exercise every
#: path: mobility, handover, cache eviction, and all four caches.
CONFIG = DistrictConfig(
    ues=40, sites=2, caches_per_site=2, cache_capacity=30,
    catalog_size=500, zipf_exponent=0.9, duration_s=3600.0,
    sessions_per_ue_hour=2.0, mean_requests=6.0, mean_think_s=4.0,
    move_probability=0.3, handover_probability=0.3,
    allocation="content", start_s=18 * 3600.0)


@pytest.fixture(scope="module")
def localized_model():
    return calibrate("mec-ldns-mec-cdns", seed=42)


@pytest.fixture(scope="module")
def blind_model():
    return calibrate("google-dns", seed=42)


def stats_fields(stats):
    """Comparable view (histograms don't define value equality)."""
    return (stats.queries, stats.sessions, stats.active_ues, stats.hits,
            stats.localized, stats.handovers, stats.cache_load,
            stats.dns.__getstate__(), stats.total.__getstate__())


class TestCalibration:
    def test_localization_flags(self):
        assert is_localized("mec-ldns-mec-cdns")
        assert is_localized("mec-ldns-wan-cdns")
        assert not is_localized("google-dns")
        assert not is_localized("lan-ldns")

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError, match="unknown deployment"):
            calibrate("carrier-pigeon", seed=42)

    def test_calibration_is_seed_deterministic(self, localized_model):
        again = calibrate("mec-ldns-mec-cdns", seed=42)
        assert again.key == localized_model.key
        assert again.localized == localized_model.localized
        assert again.wireless.samples == localized_model.wireless.samples
        assert again.resolver.samples == localized_model.resolver.samples


class TestRunDistrict:
    def test_is_deterministic(self, localized_model):
        first = run_district(CONFIG, localized_model, seed=7)
        second = run_district(CONFIG, localized_model, seed=7)
        assert stats_fields(first) == stats_fields(second)
        assert first.queries > 0
        assert first.handovers > 0

    def test_seed_changes_the_run(self, localized_model):
        first = run_district(CONFIG, localized_model, seed=7)
        second = run_district(CONFIG, localized_model, seed=8)
        assert stats_fields(first) != stats_fields(second)

    def test_localized_deployment_serves_locally(self, localized_model):
        stats = run_district(CONFIG, localized_model, seed=7)
        # The per-site ring only ever selects a cache at the UE's
        # current site, so localization is exact.
        assert stats.localization == 1.0
        assert sum(stats.cache_load) == stats.queries
        assert all(load > 0 for load in stats.cache_load)

    def test_client_blind_deployment_pins_the_anchor(self, blind_model):
        stats = run_district(CONFIG, blind_model, seed=7)
        # Everything lands on site 0, cache 0 (the paper's
        # mislocalization): only requests from UEs at site 0 are local.
        assert stats.cache_load[0] == stats.queries
        assert all(load == 0 for load in stats.cache_load[1:])
        assert 0.0 < stats.localization < 1.0

    def test_accounting_invariants(self, localized_model):
        stats = run_district(CONFIG, localized_model, seed=11)
        assert stats.dns.count == stats.queries
        assert stats.total.count == stats.queries
        assert 0 < stats.hits < stats.queries
        assert 0 < stats.active_ues <= CONFIG.ues
        assert stats.sessions >= stats.active_ues
        # DNS is one leg of the total; totals dominate everywhere.
        assert stats.total.minimum > stats.dns.minimum

    @pytest.mark.parametrize("allocation",
                             ["content", "client", "client-bounded"])
    def test_every_allocation_policy_runs(self, localized_model, allocation):
        config = CONFIG._replace(allocation=allocation)
        stats = run_district(config, localized_model, seed=3)
        assert stats.queries > 0
        assert sum(stats.cache_load) == stats.queries
        assert stats.localization == 1.0

    def test_unknown_allocation_rejected(self, localized_model):
        config = CONFIG._replace(allocation="round-robin")
        with pytest.raises(ValueError):
            run_district(config, localized_model, seed=3)


class TestMergeStats:
    def test_counters_and_histograms_fold(self, localized_model):
        parts = [run_district(CONFIG, localized_model, seed=seed)
                 for seed in (1, 2, 3)]
        merged = merge_stats(parts)
        assert merged.queries == sum(part.queries for part in parts)
        assert merged.hits == sum(part.hits for part in parts)
        assert merged.handovers == sum(part.handovers for part in parts)
        assert merged.dns.count == merged.queries
        assert merged.cache_load == [
            sum(loads) for loads in zip(*(part.cache_load for part in parts))]
        assert merged.total.maximum == max(part.total.maximum
                                           for part in parts)

    def test_empty_merge(self):
        merged = merge_stats([])
        assert merged.queries == 0
        assert merged.hit_rate == 0.0
        assert merged.load_imbalance() == 0.0

    def test_mismatched_grids_rejected(self, localized_model):
        narrow = CONFIG._replace(caches_per_site=1)
        with pytest.raises(ValueError):
            merge_stats([run_district(CONFIG, localized_model, seed=1),
                         run_district(narrow, localized_model, seed=1)])


class TestDistrictSeed:
    def test_distinct_across_shards_and_deployments(self):
        seeds = {district_seed(42, deployment, shard)
                 for deployment in ("google-dns", "mec-ldns-mec-cdns")
                 for shard in range(4)}
        assert len(seeds) == 8

    def test_stable(self):
        assert district_seed(42, "google-dns", 0) == \
            district_seed(42, "google-dns", 0)
