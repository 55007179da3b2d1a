"""Tests for the request-disaggregation experiment."""

import pytest

from repro.experiments.disaggregation import EXPERIMENT


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(requests=800, seed=0)


class TestDisaggregation:
    def test_shape_claims_hold(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_two_routings_compared(self, result):
        assert {row.routing for row in result.rows} == \
            {"aggregated", "disaggregated"}
        assert result.row("aggregated").groups == 1
        assert result.row("disaggregated").groups == 3

    def test_hit_ratio_drop_is_substantial(self, result):
        drop = (result.row("aggregated").hit_ratio
                - result.row("disaggregated").hit_ratio)
        assert drop > 0.10  # tens of points, not noise

    def test_latency_tracks_hit_ratio(self, result):
        assert result.row("disaggregated").mean_fetch_ms > \
            result.row("aggregated").mean_fetch_ms

    def test_render(self, result):
        text = result.render()
        assert "aggregate hit ratio" in text
        assert "disaggregated" in text

    def test_row_lookup_unknown(self, result):
        with pytest.raises(KeyError):
            result.row("anycast")
