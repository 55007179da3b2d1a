"""Tests for random streams and latency models."""

import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.netsim.latency import (
    Compound,
    Constant,
    Empirical,
    Gamma,
    LogNormal,
    Normal,
    Uniform,
    lognormal_from_median_p95,
)
from repro.netsim.rand import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        first = [RandomStreams(7).stream("link").random() for _ in range(3)]
        second = [RandomStreams(7).stream("link").random() for _ in range(3)]
        assert first == second

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != \
            RandomStreams(2).stream("x").random()

    def test_new_stream_does_not_perturb_existing(self):
        streams = RandomStreams(3)
        link = streams.stream("link")
        first = link.random()
        streams.stream("unrelated")  # allocate another stream mid-run
        second = RandomStreams(3).stream("link")
        second.random()
        assert second.random() == link.random()
        assert first != second  # sanity: we compared sequences, not objects


RNG = random.Random(1234)


class TestLatencyModels:
    def test_constant(self):
        model = Constant(5.0)
        assert model.sample(RNG) == 5.0
        assert model.mean == 5.0

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            Constant(-1)

    def test_uniform_bounds(self):
        model = Uniform(2, 8)
        samples = [model.sample(RNG) for _ in range(200)]
        assert all(2 <= value <= 8 for value in samples)
        assert model.mean == 5

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            Uniform(5, 2)

    def test_normal_truncated_at_floor(self):
        model = Normal(mu=1.0, sigma=5.0, floor=0.5)
        samples = [model.sample(RNG) for _ in range(500)]
        assert all(value >= 0.5 for value in samples)

    def test_normal_mean_near_mu(self):
        model = Normal(mu=20.0, sigma=2.0)
        samples = [model.sample(RNG) for _ in range(2000)]
        assert statistics.fmean(samples) == pytest.approx(20.0, abs=0.5)

    def test_lognormal_positive_and_skewed(self):
        model = LogNormal(mu=math.log(10), sigma=0.5)
        samples = [model.sample(RNG) for _ in range(2000)]
        assert all(value > 0 for value in samples)
        assert statistics.median(samples) == pytest.approx(10, rel=0.15)
        assert statistics.fmean(samples) > statistics.median(samples)

    def test_lognormal_shift_is_floor(self):
        model = LogNormal(mu=0.0, sigma=1.0, shift=7.0)
        assert all(model.sample(RNG) > 7.0 for _ in range(200))

    def test_lognormal_mean_formula(self):
        model = LogNormal(mu=1.0, sigma=0.5, shift=2.0)
        assert model.mean == pytest.approx(2 + math.exp(1 + 0.125))

    def test_fit_from_median_p95(self):
        model = lognormal_from_median_p95(median=30, p95=90)
        samples = sorted(model.sample(RNG) for _ in range(5000))
        assert statistics.median(samples) == pytest.approx(30, rel=0.1)
        assert samples[int(0.95 * len(samples))] == pytest.approx(90, rel=0.15)

    def test_fit_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            lognormal_from_median_p95(median=50, p95=40)

    def test_fit_with_shift(self):
        model = lognormal_from_median_p95(median=30, p95=90, shift=10)
        samples = sorted(model.sample(RNG) for _ in range(5000))
        assert all(value > 10 for value in samples)
        assert statistics.median(samples) == pytest.approx(30, rel=0.1)

    def test_gamma_mean(self):
        model = Gamma(shape=4, scale=2.5, shift=1)
        samples = [model.sample(RNG) for _ in range(3000)]
        assert statistics.fmean(samples) == pytest.approx(11, rel=0.1)
        assert model.mean == 11

    def test_empirical_resamples_observed(self):
        model = Empirical([1.0, 2.0, 3.0])
        assert set(model.sample(RNG) for _ in range(100)) <= {1.0, 2.0, 3.0}
        assert model.mean == 2.0

    def test_empirical_empty_rejected(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_compound_sums(self):
        model = Compound([Constant(3), Constant(4)])
        assert model.sample(RNG) == 7
        assert model.mean == 7

    def test_add_operator_builds_compound(self):
        model = Constant(1) + Constant(2) + Constant(3)
        assert isinstance(model, Compound)
        assert model.mean == 6


@given(st.floats(min_value=0.1, max_value=1000), st.floats(min_value=1.01, max_value=10))
def test_fit_property_median_below_p95(median, ratio):
    model = lognormal_from_median_p95(median, median * ratio)
    rng = random.Random(0)
    value = model.sample(rng)
    assert value > 0
