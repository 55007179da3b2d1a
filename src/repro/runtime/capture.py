"""Per-trial telemetry capture and its deterministic re-merge.

The ambient-telemetry flow (``repro.cli --trace-out/--metrics-out``)
hangs one :class:`~repro.telemetry.Telemetry` facade on every network a
run builds.  Under sharded execution that facade cannot be shared — a
worker process would mutate a fork-copied tracer nobody reads — and
even in-process it would make span numbering depend on completion
order.  So the executor gives **every trial its own fresh facade**
(serial and parallel alike), snapshots it when the trial ends, and
merges the snapshots into the session facade *after the barrier, in
spec order*.  Exported traces and metrics therefore come out
byte-identical for ``--jobs 1`` and ``--jobs N``.

A snapshot carries finished spans, the metrics registry, the windowed
time-series, the tail-exemplar reservoir, and a triple of engine
counters — all plain data that pickles cleanly; the tracer itself does
not (its clock is a lambda), which is exactly why snapshots exist.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro import telemetry as _telemetry
from repro.telemetry import (MetricsRegistry, Span, TailReservoir, Telemetry,
                             TelemetryConfig, TimeSeries)


class TelemetrySnapshot(NamedTuple):
    """One trial's telemetry output, detached from any clock."""

    spans: List[Span]
    dropped: int
    #: Spans head-sampling discarded in this trial (accounting only).
    sampled_out: int
    metrics: MetricsRegistry
    #: Windowed counters/latency aggregates on the simulated timeline.
    timeseries: TimeSeries
    #: Slowest-query exemplars retained by this trial.
    tail: TailReservoir
    #: ``(simulators, max queue high-water, events processed)`` read off
    #: the engine at trial end — plain ints, merged max/sum/sum.
    engine: Tuple[int, int, int]


def begin_trial_capture(
        config: Optional[TelemetryConfig]) -> Optional[Telemetry]:
    """Install a fresh ambient facade for one trial (or none at all).

    ``config`` is the session facade's :class:`TelemetryConfig` (or
    ``None`` for no capture): every trial facade must make the same
    sampling decisions and use the same window/reservoir layout as the
    session it merges into, so the executor ships the three-value config
    across the process boundary instead of the facade itself.

    Always *replaces* the ambient default — in a forked worker the
    inherited default is a dead copy of the parent's facade and must
    never collect anything.
    """
    facade = (Telemetry.from_config(config)
              if config is not None else None)
    _telemetry.set_default(facade)
    return facade


def end_trial_capture(
        facade: Optional[Telemetry]) -> Optional[TelemetrySnapshot]:
    """Snapshot ``facade`` and clear the ambient default."""
    _telemetry.clear_default()
    if facade is None:
        return None
    return TelemetrySnapshot(spans=list(facade.tracer.finished),
                             dropped=facade.tracer.dropped,
                             sampled_out=facade.tracer.sampled_out,
                             metrics=facade.metrics,
                             timeseries=facade.timeseries,
                             tail=facade.tail,
                             engine=facade.engine_stats())


def merge_snapshot(session: Telemetry,
                   snapshot: Optional[TelemetrySnapshot]) -> None:
    """Fold one trial's snapshot into the session facade.

    Span and trace ids are remapped past the session tracer's
    high-water mark (`Tracer.absorb`), so per-trial id spaces
    concatenate identically regardless of which backend produced them.
    Time-series windows add cell-wise and tail reservoirs merge under
    their strict total order — both merge-order independent, but folded
    in spec order anyway, same as everything else.
    """
    if snapshot is None:
        return
    session.tracer.absorb(snapshot.spans)
    session.tracer.dropped += snapshot.dropped
    session.tracer.sampled_out += snapshot.sampled_out
    session.metrics.merge_from(snapshot.metrics)
    session.timeseries.merge_from(snapshot.timeseries)
    session.tail.merge(snapshot.tail)
