"""Tests for the streaming latency histogram (repro.measure.histogram).

The population workload engine's aggregates ride on this class: exact
count/sum/min/max, quantile error bounded by the bin width, and merges
that reproduce a single-pass run — the properties the serial-vs-sharded
digest equality of the ``population`` artifact rests on.
"""

import math
import pickle
import random

import pytest

from repro.measure.histogram import (BINS_PER_DECADE, LOW_MS,
                                     HistogramSummary, LatencyHistogram)

#: Half-bin relative quantile error bound: one bin spans a factor of
#: 10^(1/32) ~ 7.5%, and quantile() answers the geometric midpoint.
BIN_RATIO = 10.0 ** (1.0 / BINS_PER_DECADE)


class TestExactFields:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.summary() == HistogramSummary(
            0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_count_sum_min_max_are_exact(self):
        hist = LatencyHistogram()
        values = [0.07, 1.5, 1.5, 42.0, 999.25]
        for value in values:
            hist.add(value)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values), abs=1e-12)
        assert hist.minimum == min(values)
        assert hist.maximum == max(values)
        assert hist.mean == pytest.approx(sum(values) / len(values))

    def test_extreme_values_clamp_to_edge_bins(self):
        hist = LatencyHistogram()
        hist.add(1e-9)       # below the grid -> bin 0
        hist.add(1e12)       # above the grid -> last bin
        assert hist.count == 2
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        # The exact extremes survive regardless of bin clamping.
        assert hist.minimum == 1e-9
        assert hist.maximum == 1e12


class TestAddBinsLikeBinIndex:
    """``add`` computes its bin in-line; ``_bin_index`` is the readable
    form ``bin_bounds`` uses.  They must never disagree."""

    @staticmethod
    def bin_added_to(value):
        hist = LatencyHistogram()
        hist.add(value)
        assert sum(hist.counts) == 1
        return hist.counts.index(1)

    def test_every_bin_edge_and_its_neighbours(self):
        for edge_index in range(LatencyHistogram.size + 1):
            edge = LOW_MS * 10.0 ** (edge_index / BINS_PER_DECADE)
            for value in (math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, math.inf)):
                assert self.bin_added_to(value) == \
                    LatencyHistogram._bin_index(value), (edge_index, value)

    @pytest.mark.parametrize("value", [
        0.0, -1.0, LOW_MS, math.nextafter(LOW_MS, 1.0),
        LOW_MS * 10.0 ** 8, 1e9, 1e300])
    def test_floor_and_ceiling(self, value):
        assert self.bin_added_to(value) == LatencyHistogram._bin_index(value)

    def test_extremes_land_in_the_edge_bins(self):
        assert self.bin_added_to(0.0) == 0
        assert self.bin_added_to(LOW_MS) == 0
        assert self.bin_added_to(1e9) == LatencyHistogram.size - 1


class TestQuantiles:
    def test_quantile_error_is_bounded_by_bin_width(self):
        rng = random.Random(7)
        hist = LatencyHistogram()
        samples = sorted(rng.lognormvariate(3.0, 0.8) for _ in range(20_000))
        for value in samples:
            hist.add(value)
        for q in (0.5, 0.9, 0.99):
            exact = samples[min(len(samples) - 1,
                                int(q * len(samples)))]
            approx = hist.quantile(q)
            assert approx / exact == pytest.approx(1.0, abs=BIN_RATIO - 1.0)

    def test_extreme_quantiles_are_exact(self):
        hist = LatencyHistogram()
        for value in (3.0, 5.0, 8.0):
            hist.add(value)
        assert hist.quantile(0.0) == 3.0
        assert hist.quantile(1.0) == 8.0

    def test_quantiles_clamp_into_min_max(self):
        hist = LatencyHistogram()
        hist.add(5.0)
        for q in (0.1, 0.5, 0.999):
            assert hist.quantile(q) == 5.0

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_summary_is_monotone(self):
        rng = random.Random(11)
        hist = LatencyHistogram()
        for _ in range(5_000):
            hist.add(rng.expovariate(1 / 20.0))
        summary = hist.summary()
        assert (summary.minimum <= summary.p50 <= summary.p90
                <= summary.p99 <= summary.p999 <= summary.maximum)


class TestMerge:
    def test_merge_equals_single_pass(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(2.0, 1.0) for _ in range(4_000)]
        single = LatencyHistogram()
        for value in values:
            single.add(value)
        parts = [LatencyHistogram() for _ in range(4)]
        for index, value in enumerate(values):
            parts[index % 4].add(value)
        merged = LatencyHistogram()
        for part in parts:
            merged.merge(part)
        assert merged.counts == single.counts
        assert merged.count == single.count
        assert merged.minimum == single.minimum
        assert merged.maximum == single.maximum
        # The sum is exact per histogram but float addition order
        # differs between the two routes; allow rounding noise only.
        assert merged.total == pytest.approx(single.total, rel=1e-12)

    def test_merge_empty_is_identity(self):
        hist = LatencyHistogram()
        hist.add(9.0)
        before = (list(hist.counts), hist.count, hist.total, hist.minimum,
                  hist.maximum)
        hist.merge(LatencyHistogram())
        assert (hist.counts, hist.count, hist.total, hist.minimum,
                hist.maximum) == before

    def test_merge_rejects_mismatched_binning(self):
        narrow = LatencyHistogram()
        narrow.counts = narrow.counts[:-1]
        with pytest.raises(ValueError):
            LatencyHistogram().merge(narrow)


class TestPickling:
    def test_round_trip_preserves_state(self):
        hist = LatencyHistogram()
        for value in (0.2, 7.0, 7.0, 130.0):
            hist.add(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.total == hist.total
        assert clone.minimum == hist.minimum
        assert clone.maximum == hist.maximum
        # The clone keeps ingesting after the round trip.
        clone.add(1.0)
        assert clone.count == hist.count + 1

    def test_empty_round_trip(self):
        clone = pickle.loads(pickle.dumps(LatencyHistogram()))
        assert clone.count == 0
        assert clone.minimum == math.inf

