"""`repro.telemetry` — query-scoped tracing, metrics, and exporters.

The observability substrate for the whole stack: a :class:`Tracer`
producing spans on the simulated clock, a :class:`MetricsRegistry` of
counters/histograms, and exporters to Chrome ``trace_event``
JSON and a JSON experiment artifact.

Everything hangs off one :class:`Telemetry` facade::

    tel = Telemetry()
    tel.attach(testbed.network)          # binds the sim clock, too
    ... run the workload ...
    exporters.write_chrome_trace(tel.tracer.finished, "trace.json")
    exporters.write_json_artifact(tel.metrics, "metrics.json")

Instrumented call sites all guard on ``network.telemetry`` being
non-``None`` (and the sockets/servers thread a per-query context
object), so with no telemetry attached the simulation runs the exact
same instruction stream it always did: no RNG draws, no added delays,
byte-for-byte identical replay digests.

For runs driven through ``repro.cli`` there is an **ambient default**:
:func:`set_default` installs a facade that ``build_testbed`` (and the
public-internet scenario) attach to each network they create, which is
how ``--trace-out``/``--metrics-out`` instrument experiments without
threading a parameter through every builder.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

from repro.telemetry import exporters
from repro.telemetry.metrics import (DEFAULT_BUCKETS, Counter, Histogram,
                                     MetricsRegistry)
from repro.telemetry.sampling import (Exemplar, HeadSampler, TailReservoir,
                                      hash_unit, hash_unit_u64)
from repro.telemetry.timeseries import TimeSeries
from repro.telemetry.trace import Span, TraceContext, Tracer

__all__ = [
    "Telemetry", "TelemetryConfig", "Tracer", "Span", "TraceContext",
    "MetricsRegistry", "Counter", "Histogram", "DEFAULT_BUCKETS",
    "TimeSeries", "TailReservoir", "Exemplar", "HeadSampler",
    "hash_unit", "hash_unit_u64", "exporters",
    "set_default", "get_default", "clear_default",
]


class TelemetryConfig(NamedTuple):
    """The knobs a :class:`Telemetry` facade was built with.

    Per-trial facades must behave identically to the session facade
    (same sampling decisions, same window layout, same reservoir
    bounds), so the executor clones this config across the process
    boundary instead of the facade itself — the config is three plain
    values and pickles for free.
    """

    #: Deterministic head-sampling rate for traces (1.0 = keep all).
    trace_sample: float = 1.0
    #: Simulated-time window width for the streaming time-series.
    window_ms: float = 1000.0
    #: Slowest-query exemplars retained by the tail reservoir.
    tail_capacity: int = 32


class Telemetry:
    """One run's tracer, metrics, time-series, and tail reservoir."""

    def __init__(self, trace_sample: float = 1.0,
                 window_ms: float = 1000.0, tail_capacity: int = 32) -> None:
        self.tracer = Tracer(sample_rate=trace_sample)
        self.metrics = MetricsRegistry()
        self.timeseries = TimeSeries(window_ms=window_ms)
        self.tail = TailReservoir(tail_capacity)
        #: Simulators this facade was attached to (via their networks).
        #: Held only for end-of-trial engine introspection — the facade
        #: never calls into them, it just reads their public counters.
        self._sims: List[Any] = []

    def config(self) -> TelemetryConfig:
        """The config that reproduces this facade's behaviour."""
        return TelemetryConfig(
            trace_sample=self.tracer.sample_rate,
            window_ms=self.timeseries.window_ms,
            tail_capacity=self.tail.capacity)

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Telemetry":
        """A fresh facade behaving exactly like ``config`` describes."""
        return cls(*config)

    def attach(self, network) -> "Telemetry":
        """Make ``network`` (and everything riding it) report here.

        Binds the tracer's clock to the network's simulator and sets
        ``network.telemetry``, which every instrumentation site in the
        stack checks before doing any work.
        """
        network.telemetry = self
        self.tracer.bind_clock_source(network.sim)
        if network.sim not in self._sims:
            self._sims.append(network.sim)
        return self

    def engine_stats(self) -> Tuple[int, int, int]:
        """``(simulators, max queue high-water, events processed)``.

        Read duck-typed off the attached simulators' public counters —
        the facade layer never imports the engine.  Values are
        wall-clock-free engine facts and merge deterministically
        (max / sum), so they can ride the same snapshot path as spans.
        """
        depth = 0
        events = 0
        for sim in self._sims:
            sim_depth = getattr(sim, "max_queue_depth", 0)
            if sim_depth > depth:
                depth = sim_depth
            events += getattr(sim, "events_processed", 0)
        return (len(self._sims), depth, events)

    def detach(self, network) -> None:
        """Stop ``network`` reporting here."""
        if getattr(network, "telemetry", None) is self:
            network.telemetry = None

    def __repr__(self) -> str:
        return (f"Telemetry({len(self.tracer.finished)} spans, "
                f"{len(self.metrics)} instruments, "
                f"{len(self.tail)} tail exemplars)")


_default: Optional[Telemetry] = None


def set_default(telemetry: Optional[Telemetry]) -> None:
    """Install the ambient telemetry picked up by testbed builders."""
    global _default
    _default = telemetry


def get_default() -> Optional[Telemetry]:
    """The ambient telemetry, or ``None`` when observation is off."""
    return _default


def clear_default() -> None:
    """Remove the ambient telemetry (equivalent to ``set_default(None)``)."""
    set_default(None)
