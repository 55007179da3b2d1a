"""Tests for the envelope-sweep experiment."""

import pytest

from repro.core.deployments import build_custom_cdns_testbed
from repro.experiments.envelope_sweep import (
    ENVELOPE_MS,
    EXPERIMENT,
)
from repro.measure.runner import measure_deployment_queries


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(distances=(0.5, 2.0, 4.0, 8.0, 25.0),
                                 queries=8, seed=42)


class TestEnvelopeSweep:
    def test_shape_claims_hold(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_latency_monotone_in_distance(self, result):
        means = [point.mean_latency_ms for point in result.points]
        assert means == sorted(means)

    def test_crossover_in_lan_band(self, result):
        assert result.crossover_one_way_ms is not None
        assert 1.0 <= result.crossover_one_way_ms <= 8.0

    def test_envelope_flags_consistent(self, result):
        for point in result.points:
            assert point.within_envelope == \
                (point.mean_latency_ms < ENVELOPE_MS)

    def test_render(self, result):
        text = result.render()
        assert "crossover" in text
        assert "C-DNS one-way ms" in text

    def test_no_crossover_when_all_within(self):
        narrow = EXPERIMENT.run_serial(distances=(0.5, 1.0), queries=6,
                                       seed=42)
        assert narrow.crossover_one_way_ms is None


class TestCustomTestbed:
    def test_custom_distance_resolves_correctly(self):
        testbed = build_custom_cdns_testbed(5.0, seed=1)
        measurements = measure_deployment_queries(testbed, 4)
        for m in measurements:
            assert m.status == "NOERROR"
            assert m.addresses[0] in testbed.expected_cache_ips

    def test_zero_distance_close_to_lan_figure(self):
        near = build_custom_cdns_testbed(0.5, seed=1)
        far = build_custom_cdns_testbed(25.0, seed=1)
        near_ms = measure_deployment_queries(near, 6)
        far_ms = measure_deployment_queries(far, 6)
        near_mean = sum(m.latency_ms for m in near_ms) / 6
        far_mean = sum(m.latency_ms for m in far_ms) / 6
        assert far_mean - near_mean == pytest.approx(49, abs=6)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            build_custom_cdns_testbed(-1)
