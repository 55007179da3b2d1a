"""Tests for the paper-style statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.measure.stats import SummaryStats, percentile, summarize, trimmed


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)


class TestTrimmed:
    def test_8_92_window_drops_extremes(self):
        values = list(range(100))  # 0..99
        window = trimmed(values)
        assert min(window) >= 7
        assert max(window) <= 92
        assert len(window) >= 80

    def test_small_sample_keeps_most(self):
        # 12 tests, the paper's minimum.
        values = [10.0] * 10 + [100.0, 0.1]
        window = trimmed(values)
        assert 100.0 not in window
        assert 0.1 not in window

    def test_empty_input(self):
        assert trimmed([]) == []

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=100))
    def test_trimmed_is_subset(self, values):
        window = trimmed(values)
        assert all(value in values for value in window)
        # With very small spread-out samples the interpolated window can
        # be empty (summarize() falls back to the full sample then).
        if len(values) >= 12:
            assert window


class TestSummarize:
    def test_extremes_are_untrimmed(self):
        values = [10.0] * 20 + [500.0, 0.5]
        stats = summarize(values)
        assert stats.minimum == 0.5
        assert stats.maximum == 500.0
        # ... but the mean excludes them.
        assert stats.mean == pytest.approx(10.0)

    def test_count_is_total_samples(self):
        assert summarize([1.0, 2.0, 3.0]).count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_stdev_zero_for_constant(self):
        assert summarize([5.0] * 10).stdev == 0.0

    def test_str_rendering(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "mean=" in text and "n=3" in text
        assert "p99=" in text

    def test_p99_is_untrimmed(self):
        # One enormous outlier: trimming drops it from the mean, but the
        # p99 tail (like p95 and the extremes) must still see it.
        values = [10.0] * 9 + [1000.0]
        stats = summarize(values)
        assert stats.p99 > 900.0
        assert stats.mean == pytest.approx(10.0)

    def test_p99_between_p95_and_max(self):
        values = [float(v) for v in range(1, 201)]
        stats = summarize(values)
        assert stats.p95 <= stats.p99 <= stats.maximum

    def test_p99_shares_percentile_implementation(self):
        values = [float(v) for v in range(1, 101)]
        assert summarize(values).p99 == percentile(values, 99)

    def test_returns_namedtuple(self):
        assert isinstance(summarize([1.0]), SummaryStats)
