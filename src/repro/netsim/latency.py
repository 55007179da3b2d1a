"""Latency distribution models.

Links are calibrated with these models: a wired campus hop is nearly
constant, home Wi-Fi is noisier, and the LTE radio leg has a heavy right
tail (the paper's Figure 2 shows exactly this variance ordering).  All
samples are one-way milliseconds and are clamped to a non-negative floor.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from operator import add
from typing import List, Sequence


class LatencyModel:
    """Base class: ``sample(rng)`` returns one-way latency in ms."""

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Analytic mean used for routing weights."""
        raise NotImplementedError

    def __add__(self, other: "LatencyModel") -> "Compound":
        return Compound([self, other])


class Constant(LatencyModel):
    """A fixed delay."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return self.value

    @property
    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Constant({self.value}ms)"


class Uniform(LatencyModel):
    """Uniform in [low, high]."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"bad uniform range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return rng.uniform(self.low, self.high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"Uniform({self.low}..{self.high}ms)"


class Normal(LatencyModel):
    """Gaussian truncated at zero (resampled, not clipped to a spike)."""

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"negative sigma {sigma}")
        self.mu = mu
        self.sigma = sigma

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        for _ in range(64):
            value = rng.gauss(self.mu, self.sigma)
            if value >= 0.0:
                return value
        return 0.0  # pathological parameters; keep the sim running

    @property
    def mean(self) -> float:
        return max(self.mu, 0.0)

    def __repr__(self) -> str:
        return f"Normal(mu={self.mu}, sigma={self.sigma})"


class LogNormal(LatencyModel):
    """Log-normal — the canonical heavy-tailed network delay model.

    Parameterised by the underlying normal's ``mu``/``sigma``; use
    :func:`lognormal_from_median_p95` to fit from observable quantiles.
    ``shift`` adds a deterministic propagation floor.
    """

    def __init__(self, mu: float, sigma: float, shift: float = 0.0) -> None:
        if sigma < 0:
            raise ValueError(f"negative sigma {sigma}")
        self.mu = mu
        self.sigma = sigma
        self.shift = shift

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return self.shift + rng.lognormvariate(self.mu, self.sigma)

    @property
    def mean(self) -> float:
        return self.shift + math.exp(self.mu + self.sigma ** 2 / 2)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu:.3f}, sigma={self.sigma:.3f}, shift={self.shift})"


#: 95th percentile z-score of the standard normal.
_Z95 = 1.6448536269514722


def lognormal_from_median_p95(median: float, p95: float,
                              shift: float = 0.0) -> LogNormal:
    """Fit a LogNormal whose median and 95th percentile match the inputs."""
    if not 0 < median < p95:
        raise ValueError(f"need 0 < median < p95, got {median}, {p95}")
    adjusted_median = median - shift
    adjusted_p95 = p95 - shift
    if adjusted_median <= 0 or adjusted_p95 <= adjusted_median:
        raise ValueError("shift leaves no room for the distribution body")
    mu = math.log(adjusted_median)
    sigma = (math.log(adjusted_p95) - mu) / _Z95
    return LogNormal(mu, sigma, shift)


class Gamma(LatencyModel):
    """Gamma-distributed delay (moderate tail, strictly positive)."""

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma shape and scale must be positive")
        self.shape = shape
        self.scale = scale

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return rng.gammavariate(self.shape, self.scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape}, scale={self.scale})"


class Empirical(LatencyModel):
    """Resamples from observed values (bootstrap-style)."""

    def __init__(self, samples: Sequence[float]) -> None:
        if not samples:
            raise ValueError("empirical model needs at least one sample")
        if any(value < 0 for value in samples):
            raise ValueError("negative latency sample")
        self.samples = list(samples)

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return rng.choice(self.samples)

    @property
    def mean(self) -> float:
        return reduce(add, self.samples, 0) / len(self.samples)

    def __repr__(self) -> str:
        return f"Empirical(n={len(self.samples)}, mean={self.mean:.2f}ms)"


class Compound(LatencyModel):
    """The sum of independent component delays (e.g. queueing + propagation)."""

    def __init__(self, components: List[LatencyModel]) -> None:
        if not components:
            raise ValueError("compound model needs at least one component")
        self.components = list(components)

    def sample(self, rng: random.Random) -> float:
        """Draw one one-way latency sample in milliseconds."""
        return reduce(add, [component.sample(rng)
                            for component in self.components], 0)

    @property
    def mean(self) -> float:
        return reduce(add, [component.mean
                            for component in self.components], 0)

    def __add__(self, other: LatencyModel) -> "Compound":
        return Compound(self.components + [other])

    def __repr__(self) -> str:
        return f"Compound({self.components!r})"
