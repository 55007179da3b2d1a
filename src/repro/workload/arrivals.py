"""Diurnal non-homogeneous Poisson session arrivals (thinning method).

City-scale request traffic is not a flat Poisson stream: mobile usage
follows the day, with a deep overnight trough and an evening peak.  The
standard way to sample a non-homogeneous Poisson process with a bounded
rate function is Lewis & Shedler's *thinning*: draw candidate arrivals
from a homogeneous process at the peak rate, then accept each candidate
with probability ``rate(t) / rate_max``.  Acceptance uses one extra
uniform per candidate, so the draw stays O(1) memory and every accepted
time is an exact sample of the target process.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add
from typing import Iterator, List, Sequence

#: Hour-of-day activity multipliers for a generic mobile population:
#: overnight trough around 04:00, a morning shoulder, and the evening
#: peak around 21:00.  Values are relative; the profile normalizes.
DEFAULT_DIURNAL: Sequence[float] = (
    0.28, 0.18, 0.12, 0.09, 0.08, 0.10,   # 00-05
    0.18, 0.35, 0.55, 0.65, 0.70, 0.75,   # 06-11
    0.80, 0.78, 0.74, 0.72, 0.75, 0.82,   # 12-17
    0.90, 0.96, 1.00, 1.00, 0.80, 0.50,   # 18-23
)

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


class DiurnalProfile:
    """A piecewise-constant hour-of-day rate multiplier.

    ``multiplier(t)`` is the activity level at simulation time ``t``
    seconds (day-periodic); ``peak`` is its maximum, the thinning
    envelope.  ``mean`` is the day-average multiplier, used to convert
    a desired *average* rate into the base rate the process needs.
    """

    def __init__(self, hourly: Sequence[float] = DEFAULT_DIURNAL) -> None:
        if len(hourly) != 24:
            raise ValueError(
                f"diurnal profile needs 24 hourly values, got {len(hourly)}")
        if any(value < 0 for value in hourly):
            raise ValueError("diurnal multipliers must be non-negative")
        if max(hourly) <= 0:
            raise ValueError("diurnal profile must have a positive peak")
        self.hourly: List[float] = list(hourly)
        self.peak: float = max(self.hourly)
        self.mean: float = reduce(add, self.hourly, 0) / len(self.hourly)

    def hour_of(self, t_seconds: float) -> int:
        """The hour-of-day bucket containing ``t_seconds``."""
        return int((t_seconds % SECONDS_PER_DAY) // SECONDS_PER_HOUR)

    def multiplier(self, t_seconds: float) -> float:
        """The activity multiplier at time ``t_seconds``."""
        return self.hourly[self.hour_of(t_seconds)]


class NhppArrivals:
    """Session start times from a diurnally-modulated Poisson process.

    ``mean_rate_per_s`` is the *day-average* arrival rate; the
    instantaneous rate is ``mean_rate_per_s * multiplier(t) /
    profile.mean``, so a flat profile degrades exactly to a homogeneous
    process at the requested rate.
    """

    def __init__(self, mean_rate_per_s: float,
                 profile: DiurnalProfile) -> None:
        if mean_rate_per_s <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {mean_rate_per_s}")
        self.mean_rate_per_s = mean_rate_per_s
        self.profile = profile
        #: Instantaneous-rate scale: rate(t) = _scale * multiplier(t).
        self._scale = mean_rate_per_s / profile.mean
        #: Thinning envelope: the maximum instantaneous rate.
        self.rate_max = self._scale * profile.peak

    def rate_at(self, t_seconds: float) -> float:
        """The instantaneous arrival rate at ``t_seconds``."""
        return self._scale * self.profile.multiplier(t_seconds)

    def times(self, rng: random.Random, duration_s: float,
              start_s: float = 0.0) -> Iterator[float]:
        """Yield arrival times in ``[start_s, start_s + duration_s)``.

        Lewis-Shedler thinning: candidates at ``rate_max``, each kept
        with probability ``rate(t) / rate_max``.
        """
        if duration_s < 0:
            raise ValueError(f"negative duration {duration_s}")
        t = start_s
        end = start_s + duration_s
        while True:
            t += rng.expovariate(self.rate_max)
            if t >= end:
                return
            if rng.random() * self.rate_max <= self.rate_at(t):
                yield t
