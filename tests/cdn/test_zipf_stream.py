"""Tests for streaming Zipf sampling (repro.cdn.content.ZipfRankStream).

The rejection sampler keeps no per-item weight or cumulative table, so
it runs in O(1) memory over catalogs that are never materialized.
These tests pin what must not change: the
sampled *distribution* (regression against the exact Zipf pmf), the
rank-frequency slope, and determinism of the stream for a fixed seed.
"""

import math
import random
from collections import Counter

import pytest

from repro.cdn.content import ZipfRankStream


def zipf_pmf(n, s):
    weights = [rank ** -s for rank in range(1, n + 1)]
    total = sum(weights)
    return [weight / total for weight in weights]


def chi_square(counts, probabilities, draws):
    statistic = 0.0
    for rank0, probability in enumerate(probabilities):
        expected = probability * draws
        observed = counts.get(rank0 + 1, 0)
        statistic += (observed - expected) ** 2 / expected
    return statistic


class TestDistribution:
    @pytest.mark.parametrize("exponent", [0.9, 1.0, 1.3])
    def test_frequencies_match_the_exact_pmf(self, exponent):
        # Regression for the table-based implementation this replaced:
        # the sampled frequency distribution must be the same Zipf(s).
        n, draws = 50, 60_000
        stream = ZipfRankStream(n, random.Random(1234), exponent=exponent)
        counts = Counter(stream.ranks(draws))
        assert set(counts) <= set(range(1, n + 1))
        statistic = chi_square(counts, zipf_pmf(n, exponent), draws)
        # Chi-square with df = n - 1: mean df, sd sqrt(2 df).  Five
        # sigma keeps the test deterministic-seed-stable yet sharp
        # enough to catch a wrong exponent or a biased envelope.
        df = n - 1
        assert statistic < df + 5.0 * math.sqrt(2.0 * df)

    def test_rank_frequency_slope(self):
        # Least-squares slope of log(freq) vs log(rank) over the head
        # ranks must recover -s.
        n, s, draws = 1_000, 0.9, 150_000
        stream = ZipfRankStream(n, random.Random(7), exponent=s)
        counts = Counter(stream.ranks(draws))
        xs, ys = [], []
        for rank in range(1, 21):
            assert counts[rank] > 0
            xs.append(math.log(rank))
            ys.append(math.log(counts[rank]))
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
                 / sum((x - mean_x) ** 2 for x in xs))
        assert slope == pytest.approx(-s, abs=0.06)

    def test_stream_is_deterministic_for_a_seed(self):
        first = list(ZipfRankStream(10_000, random.Random(42)).ranks(200))
        second = list(ZipfRankStream(10_000, random.Random(42)).ranks(200))
        assert first == second

    def test_ranks_stay_in_range_for_huge_catalogs(self):
        # The whole point of the rejection sampler: a 10^7-item catalog
        # with no 10^7-entry table behind it.
        stream = ZipfRankStream(10_000_000, random.Random(3))
        ranks = list(stream.ranks(2_000))
        assert all(1 <= rank <= 10_000_000 for rank in ranks)
        assert min(ranks) == 1  # the head is hot even at this scale

    def test_single_item_catalog(self):
        stream = ZipfRankStream(1, random.Random(0))
        assert list(stream.ranks(10)) == [1] * 10

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ZipfRankStream(0, random.Random(0))


class MethodCallRankStream:
    """``next_rank`` the way it was first written: the envelope integral
    and its inverse as methods, the s = 1 branch tested on every call.
    The reference the in-lined sampler must reproduce draw for draw."""

    def __init__(self, n, rng, exponent):
        self.n = n
        self.exponent = exponent
        self._rng = rng
        self._one_minus_s = 1.0 - exponent
        self._total = self._integral(float(n + 1))
        self._cell_one = self._integral(2.0)

    def _integral(self, x):
        if abs(self._one_minus_s) < 1e-12:
            return math.log(x)
        return (x ** self._one_minus_s - 1.0) / self._one_minus_s

    def _inverse(self, area):
        if abs(self._one_minus_s) < 1e-12:
            return math.exp(area)
        return (1.0 + area * self._one_minus_s) ** (1.0 / self._one_minus_s)

    def next_rank(self):
        if self.n == 1:
            return 1
        while True:
            x = self._inverse(self._rng.random() * self._total)
            k = int(x)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            cell = self._integral(float(k + 1)) - self._integral(float(k))
            accept = (k ** -self.exponent) * self._cell_one / cell
            if self._rng.random() <= accept:
                return k


class TestInlinedSamplerMatchesTheMethodCallForm:
    @pytest.mark.parametrize("exponent", [0.5, 0.9, 1.0, 1.2])
    @pytest.mark.parametrize("n", [1, 2, 10, 10 ** 5, 10 ** 7])
    def test_same_ranks_and_same_rng_state(self, exponent, n):
        fast_rng, slow_rng = random.Random(2024), random.Random(2024)
        fast = ZipfRankStream(n, fast_rng, exponent=exponent)
        slow = MethodCallRankStream(n, slow_rng, exponent)
        assert list(fast.ranks(10_000)) == \
            [slow.next_rank() for _ in range(10_000)]
        # Same rejections too, not just the same accepted ranks.
        assert fast_rng.getstate() == slow_rng.getstate()
