"""Tests for diurnal NHPP arrivals (repro.workload.arrivals).

The load-bearing claim: Lewis-Shedler thinning produces, per diurnal
hour bucket, an empirical arrival rate matching the profile — so the
population engine's "evening window" really is evening traffic.  The
engine thins in-line; the loop is tested here as
``tests/workload/reference.py``'s ``Arrivals.times``, which
``test_kernel_equivalence.py`` holds the kernel to.
"""

import math
import random

import pytest

from repro.workload.arrivals import (DEFAULT_DIURNAL, SECONDS_PER_DAY,
                                     SECONDS_PER_HOUR, DiurnalProfile,
                                     NhppArrivals)
from tests.workload.reference import Arrivals


class FlatProfile:
    """A day with no trough and no peak: the multiplier is 1 throughout."""

    peak = mean = 1.0

    def multiplier(self, t_seconds):
        return 1.0


class TestDiurnalProfile:
    def test_default_shape(self):
        profile = DiurnalProfile()
        assert len(profile.hourly) == 24
        assert profile.peak == max(DEFAULT_DIURNAL) == 1.0
        assert profile.mean == pytest.approx(sum(DEFAULT_DIURNAL) / 24)
        # Overnight trough vs evening peak: the profile must actually
        # be diurnal, not flat.
        assert profile.multiplier(4 * SECONDS_PER_HOUR) < 0.2
        assert profile.multiplier(20 * SECONDS_PER_HOUR) == 1.0

    def test_multiplier_is_day_periodic(self):
        profile = DiurnalProfile()
        t = 13.5 * SECONDS_PER_HOUR
        assert profile.multiplier(t) == profile.multiplier(t + SECONDS_PER_DAY)
        assert profile.hour_of(t) == 13


class TestNhppArrivals:
    def test_rate_normalization(self):
        # mean_rate_per_s is the *day-average* rate: the instantaneous
        # rate integrates back to it over a full day.
        profile = DiurnalProfile()
        arrivals = Arrivals(2.0, profile)
        day_integral = sum(
            arrivals.rate_at(hour * SECONDS_PER_HOUR) * SECONDS_PER_HOUR
            for hour in range(24))
        assert day_integral == pytest.approx(2.0 * SECONDS_PER_DAY)
        assert arrivals.rate_max == pytest.approx(2.0 / profile.mean)

    def test_per_bucket_empirical_rate_matches_the_profile(self):
        # One full simulated day; every hour bucket's arrival count must
        # sit within 5 sigma of its NHPP expectation.  Deterministic
        # seed keeps this a regression test, not a flaky one.
        profile = DiurnalProfile()
        arrivals = Arrivals(2.0, profile)
        rng = random.Random(2024)
        buckets = [0] * 24
        for t in arrivals.times(rng, SECONDS_PER_DAY):
            buckets[profile.hour_of(t)] += 1
        for hour, observed in enumerate(buckets):
            expected = arrivals.rate_at(hour * SECONDS_PER_HOUR) \
                * SECONDS_PER_HOUR
            sigma = math.sqrt(expected)
            assert abs(observed - expected) < 5.0 * sigma, (
                f"hour {hour}: {observed} arrivals vs expected "
                f"{expected:.0f} +/- {sigma:.0f}")

    def test_flat_profile_degrades_to_homogeneous_poisson(self):
        arrivals = Arrivals(0.5, FlatProfile())
        rng = random.Random(11)
        count = sum(1 for _ in arrivals.times(rng, 40_000.0))
        expected = 0.5 * 40_000.0
        assert abs(count - expected) < 5.0 * math.sqrt(expected)

    def test_window_respects_start_and_duration(self):
        arrivals = Arrivals(1.0, DiurnalProfile())
        rng = random.Random(5)
        start = 18 * SECONDS_PER_HOUR
        times = list(arrivals.times(rng, SECONDS_PER_HOUR, start_s=start))
        assert times, "the evening window must produce arrivals"
        assert all(start <= t < start + SECONDS_PER_HOUR for t in times)
        assert times == sorted(times)

    def test_zero_duration_yields_nothing(self):
        arrivals = Arrivals(1.0, DiurnalProfile())
        assert list(arrivals.times(random.Random(1), 0.0)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            NhppArrivals(0.0, DiurnalProfile())
        with pytest.raises(ValueError):
            list(Arrivals(1.0, DiurnalProfile())
                 .times(random.Random(1), -1.0))
