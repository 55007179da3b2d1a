"""Diurnal non-homogeneous Poisson session arrivals (thinning method).

City-scale request traffic is not a flat Poisson stream: mobile usage
follows the day, with a deep overnight trough and an evening peak.  The
standard way to sample a non-homogeneous Poisson process with a bounded
rate function is Lewis & Shedler's *thinning*: draw candidate arrivals
from a homogeneous process at the peak rate, then accept each candidate
with probability ``rate(t) / rate_max``.  Acceptance uses one extra
uniform per candidate, so the draw stays O(1) memory and every accepted
time is an exact sample of the target process.  The population engine
runs that loop in-line (:func:`repro.workload.engine.run_district`) from
:class:`NhppArrivals`' envelope and hourly rates.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import List, Sequence

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
    """The piecewise-constant hour-of-day rate multiplier ``DEFAULT_DIURNAL``.

    ``multiplier(t)`` is the activity level at simulation time ``t``
    seconds (day-periodic); ``peak`` is its maximum, the thinning
    envelope.  ``mean`` is the day-average multiplier, used to convert
    a desired *average* rate into the base rate the process needs.
    """

    def __init__(self) -> None:
        self.hourly: List[float] = list(DEFAULT_DIURNAL)
        self.peak: float = max(self.hourly)
        self.mean: float = reduce(add, self.hourly, 0) / len(self.hourly)

    def hour_of(self, t_seconds: float) -> int:
        """The hour-of-day bucket containing ``t_seconds``."""
        return int((t_seconds % SECONDS_PER_DAY) // SECONDS_PER_HOUR)

    def multiplier(self, t_seconds: float) -> float:
        """The activity multiplier at time ``t_seconds``."""
        return self.hourly[self.hour_of(t_seconds)]


class NhppArrivals:
    """The rates of a diurnally-modulated Poisson process of session
    starts.

    ``mean_rate_per_s`` is the *day-average* arrival rate; the
    instantaneous rate is ``scale * multiplier(t)``, with ``scale =
    mean_rate_per_s / profile.mean``, so a flat profile degrades exactly
    to a homogeneous process at the requested rate.
    """

    def __init__(self, mean_rate_per_s: float,
                 profile: DiurnalProfile) -> None:
        if mean_rate_per_s <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {mean_rate_per_s}")
        self.mean_rate_per_s = mean_rate_per_s
        self.profile = profile
        #: Instantaneous-rate scale: rate(t) = scale * multiplier(t).
        self.scale = mean_rate_per_s / profile.mean
        #: Thinning envelope: the maximum instantaneous rate.
        self.rate_max = self.scale * profile.peak
