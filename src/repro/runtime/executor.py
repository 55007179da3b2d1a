"""Sharded trial execution with per-trial fault isolation.

:class:`TrialExecutor` runs an :class:`~repro.runtime.experiment.Experiment`'s
trial plan through one of two backends:

* **serial** (``jobs=1``) — every trial in this process, in spec order;
* **multiprocessing** (``jobs=N``) — specs pickled in chunks to a
  persistent worker pool (see :func:`get_worker_pool`), payloads
  collected with ``Pool.map`` (which preserves input order).

Both backends uphold the same contract:

* results are merged strictly in **spec order**, never completion
  order, so the published artifact is byte-identical across backends;
* a trial that raises becomes a structured :class:`TrialFailure` on its
  :class:`TrialOutcome` instead of killing the sweep — the remaining
  trials still run, and ``merge`` is skipped only when something failed;
* when ambient telemetry is installed, each trial collects into its own
  fresh facade and the snapshots are merged after the barrier, in spec
  order (see :mod:`repro.runtime.capture`);
* when wall-clock profiling is requested (``profile=True``), each trial
  runs under its own ``cProfile.Profile`` and the raw tables are folded
  together after the barrier, in spec order — same discipline, so the
  merged profile is identical across backends.

Workers never import experiment modules by name — the experiment
*instance* travels inside the pickled task, and unpickling performs the
import.  That keeps ``runtime`` free of any ``experiments`` import edge
(the layering contract forbids the cycle, lazy imports included).
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import time
import traceback
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro import telemetry as _telemetry
from repro.runtime.capture import (ProfileStats, TelemetrySnapshot,
                                   begin_profile_capture, begin_trial_capture,
                                   end_profile_capture, end_trial_capture,
                                   merge_profile_stats, merge_snapshot)
from repro.telemetry import TelemetryConfig
from repro.runtime.experiment import Experiment
from repro.runtime.spec import TrialSpec


class TrialFailure(NamedTuple):
    """One crashed trial, reported as data instead of a dead sweep."""

    spec: TrialSpec
    error: str       # exception class name
    message: str
    traceback: str

    def describe(self) -> str:
        """One-line summary for failure reports."""
        return f"{self.spec.label()}: {self.error}: {self.message}"


class TrialOutcome(NamedTuple):
    """One trial's result: a payload or a failure, never both."""

    spec: TrialSpec
    payload: Optional[object]
    failure: Optional[TrialFailure]


class ChunkStats(NamedTuple):
    """Introspection for one dispatched chunk of trials.

    ``wall_ms`` is real wall-clock time — operator diagnostics for the
    artifact's ``meta`` section, never result material (which is why
    byte-equality checks strip ``meta``).  The engine counters come off
    each trial's telemetry snapshot and are deterministic.
    """

    chunk: int
    trials: int
    wall_ms: float
    #: Simulators built across the chunk's trials (calibration included).
    simulators: int
    #: Highest calendar-queue high-water mark any simulator reached.
    max_queue_depth: int
    #: Engine events processed across the chunk's trials.
    engine_events: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-artifact form of this chunk's stats."""
        return {"chunk": self.chunk, "trials": self.trials,
                "wall_ms": round(self.wall_ms, 3),
                "simulators": self.simulators,
                "max_queue_depth": self.max_queue_depth,
                "engine_events": self.engine_events}


class ExecutorStats(NamedTuple):
    """How one sweep was actually executed: backend, pool, chunks."""

    backend: str  # "serial" | "pool"
    jobs: int
    workers: int
    chunk_size: int
    #: Whether the persistent worker pool was reused from a prior sweep.
    pool_reused: bool
    chunks: Tuple[ChunkStats, ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-artifact form (lands in the artifact ``meta`` section)."""
        return {"backend": self.backend, "jobs": self.jobs,
                "workers": self.workers, "chunk_size": self.chunk_size,
                "pool_reused": self.pool_reused,
                "chunks": [chunk.to_dict() for chunk in self.chunks]}


class ExperimentRun(NamedTuple):
    """A full sweep: merged artifact plus per-trial accounting."""

    experiment: str
    params: Tuple[Tuple[str, object], ...]
    #: The merged artifact; ``None`` when any trial failed.
    result: Optional[object]
    outcomes: List[TrialOutcome]
    #: Merged per-trial cProfile tables (spec order), when profiling was
    #: requested via ``TrialExecutor(profile=True)``; ``None`` otherwise.
    profile_stats: Optional[ProfileStats] = None
    #: Per-chunk executor introspection.  Wall-clock values live here
    #: (and in artifact ``meta``) only — ``result`` stays digest-safe.
    executor_stats: Optional[ExecutorStats] = None

    @property
    def failures(self) -> List[TrialFailure]:
        """Every failed trial, in spec order."""
        return [outcome.failure for outcome in self.outcomes
                if outcome.failure is not None]

    @property
    def ok(self) -> bool:
        return not self.failures and self.result is not None


class _TrialTask(NamedTuple):
    """One trial's work order: recipe, cell, flags."""

    experiment: Experiment
    spec: TrialSpec
    #: The session facade's config (``None`` = no capture); the trial
    #: builds a fresh facade from it so sampling/window decisions match
    #: the session exactly on every backend.
    capture: Optional[TelemetryConfig]
    profile: bool


class _ChunkTask(NamedTuple):
    """What crosses the process boundary, pickled: K specs per trip.

    The experiment instance — by far the heaviest part of the old
    per-trial task — is pickled once per chunk instead of once per spec,
    and one map round-trip dispatches the whole chunk.
    """

    experiment: Experiment
    specs: Tuple[TrialSpec, ...]
    capture: Optional[TelemetryConfig]
    profile: bool


class _TrialDone(NamedTuple):
    outcome: TrialOutcome
    snapshot: Optional[TelemetrySnapshot]
    profile: Optional[ProfileStats]


def _run_trial_task(task: _TrialTask) -> _TrialDone:
    """Execute one trial under a fresh (or no) telemetry facade.

    Module-level so worker processes resolve it by qualified name; also
    the serial backend's body, so both backends share one code path.
    """
    facade = begin_trial_capture(task.capture)
    profiler = begin_profile_capture(task.profile)
    failure: Optional[TrialFailure] = None
    payload: Optional[object] = None
    try:
        payload = task.experiment.run_trial(task.spec)
    except Exception as error:  # noqa: BLE001 - failures are data here
        failure = TrialFailure(
            spec=task.spec, error=type(error).__name__,
            message=str(error), traceback=traceback.format_exc())
    profile = end_profile_capture(profiler)
    snapshot = end_trial_capture(facade)
    return _TrialDone(
        outcome=TrialOutcome(spec=task.spec, payload=payload,
                             failure=failure),
        snapshot=snapshot, profile=profile)


def _run_chunk(chunk: _ChunkTask) -> Tuple[List[_TrialDone], float]:
    """Worker entry point: run one chunk's specs back to back, in order.

    Returns the chunk's wall-clock milliseconds alongside the results —
    the one executor fact only the worker can measure.
    """
    started = time.perf_counter()  # repro: allow[DET001] chunk wall time is operator diagnostics (artifact meta only), never result material
    done = [_run_trial_task(_TrialTask(chunk.experiment, spec,
                                       chunk.capture, chunk.profile))
            for spec in chunk.specs]
    wall_ms = (time.perf_counter() - started) * 1000.0  # repro: allow[DET001] same wall-clock diagnostics as above
    return done, wall_ms


def _chunk_stats(index: int, done: List[_TrialDone],
                 wall_ms: float) -> ChunkStats:
    """Aggregate one chunk's engine counters off its trial snapshots."""
    simulators = 0
    depth = 0
    events = 0
    for item in done:
        if item.snapshot is None:
            continue
        sims, sim_depth, sim_events = item.snapshot.engine
        simulators += sims
        if sim_depth > depth:
            depth = sim_depth
        events += sim_events
    return ChunkStats(chunk=index, trials=len(done), wall_ms=wall_ms,
                      simulators=simulators, max_queue_depth=depth,
                      engine_events=events)


def _warm_noop(_index: int) -> None:
    """Pool warm-up task: forces every worker process to exist."""
    return None


#: The persistent worker pool, shared by every :class:`TrialExecutor` in
#: this process.  An ``experiment all`` run (and the test suite) executes
#: many sweeps back to back; forking a fresh pool per sweep was most of
#: the sharding overhead the benches measured.  The pool is replaced only
#: when a run needs more workers than it has, and torn down at interpreter
#: exit.  Reuse is invisible to results: every trial installs its own
#: fresh telemetry facade and derives its own RNG streams, so worker
#: process history cannot leak into any payload.
_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_WORKERS = 0


def get_worker_pool(workers: int) -> multiprocessing.pool.Pool:
    """The shared pool, grown (never shrunk) to at least ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        shutdown_worker_pool()
        context = TrialExecutor._context()
        # repro: allow[RACE001] parent-process-only bookkeeping: workers never dispatch trials (the analyzer reaches here only through its any-same-named-method `.run` edge)
        _POOL = context.Pool(processes=workers)
        # repro: allow[RACE001] same parent-only pool bookkeeping
        _POOL_WORKERS = workers
    return _POOL


def warm_worker_pool(workers: int) -> None:
    """Ensure ``workers`` live processes exist before timing anything.

    Benchmarks call this so the first sample doesn't pay pool fork-up
    (the cold-start outlier the runtime bench used to record).
    """
    get_worker_pool(workers).map(_warm_noop, range(workers))


def shutdown_worker_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on next use)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        # repro: allow[RACE001] parent-process-only pool teardown (see get_worker_pool)
        _POOL = None
        # repro: allow[RACE001] same parent-only pool bookkeeping
        _POOL_WORKERS = 0


atexit.register(shutdown_worker_pool)


class TrialExecutor:
    """Runs trial plans serially or across a process pool."""

    def __init__(self, jobs: int = 1, profile: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: When true, each trial runs under its own ``cProfile.Profile``
        #: and the merged table lands on ``ExperimentRun.profile_stats``.
        #: The profiler observes the interpreter, not the simulation, so
        #: results and telemetry are identical either way.
        self.profile = profile

    def run(self, experiment: Experiment,
            overrides: Optional[Mapping[str, object]] = None,
            ) -> ExperimentRun:
        """Expand, execute (sharded if asked), merge, and account."""
        params = experiment.resolve_params(overrides)
        specs = experiment.trials(params)
        session = _telemetry.get_default()
        capture = session.config() if session is not None else None
        if self.jobs == 1 or len(specs) <= 1:
            done, executor_stats = self._run_serial(experiment, specs,
                                                    capture)
        else:
            done, executor_stats = self._run_pool(experiment, specs, capture)
        if session is not None:
            # After the barrier, in spec order — never completion order.
            for item in done:
                merge_snapshot(session, item.snapshot)
        # Same discipline for profiles: fold after the barrier, spec order.
        profile_stats = merge_profile_stats([item.profile for item in done])
        outcomes = [item.outcome for item in done]
        failed = any(outcome.failure is not None for outcome in outcomes)
        result: Optional[object] = None
        if not failed:
            result = experiment.merge(
                params, [outcome.payload for outcome in outcomes])
        return ExperimentRun(
            experiment=experiment.name,
            params=tuple(sorted(params.items(), key=lambda item: item[0])),
            result=result, outcomes=outcomes, profile_stats=profile_stats,
            executor_stats=executor_stats)

    # -- backends -----------------------------------------------------------

    def _run_serial(self, experiment: Experiment, specs: List[TrialSpec],
                    capture: Optional[TelemetryConfig],
                    ) -> Tuple[List[_TrialDone], ExecutorStats]:
        session = _telemetry.get_default()
        done: List[_TrialDone] = []
        started = time.perf_counter()  # repro: allow[DET001] wall-clock executor diagnostics (artifact meta only)
        try:
            for spec in specs:
                done.append(_run_trial_task(
                    _TrialTask(experiment, spec, capture, self.profile)))
        finally:
            _telemetry.set_default(session)
        wall_ms = (time.perf_counter() - started) * 1000.0  # repro: allow[DET001] same wall-clock diagnostics as above
        stats = ExecutorStats(
            backend="serial", jobs=self.jobs, workers=1,
            chunk_size=max(1, len(specs)), pool_reused=False,
            chunks=(_chunk_stats(0, done, wall_ms),))
        return done, stats

    def _run_pool(self, experiment: Experiment, specs: List[TrialSpec],
                  capture: Optional[TelemetryConfig],
                  ) -> Tuple[List[_TrialDone], ExecutorStats]:
        workers = min(self.jobs, len(specs))
        # Chunking changes how work is batched across processes, never
        # what any trial computes or the order results merge in.
        chunk_size = self.default_chunk_size(len(specs), workers)
        chunks = [_ChunkTask(experiment, tuple(specs[at:at + chunk_size]),
                             capture, self.profile)
                  for at in range(0, len(specs), chunk_size)]
        pool_reused = _POOL is not None and _POOL_WORKERS >= workers
        pool = get_worker_pool(workers)
        # Pool.map returns results in input order, so flattening the
        # chunk results reads out exactly the spec order.
        done: List[_TrialDone] = []
        chunk_stats: List[ChunkStats] = []
        for index, (chunk_done, wall_ms) in enumerate(
                pool.map(_run_chunk, chunks)):
            done.extend(chunk_done)
            chunk_stats.append(_chunk_stats(index, chunk_done, wall_ms))
        stats = ExecutorStats(
            backend="pool", jobs=self.jobs, workers=workers,
            chunk_size=chunk_size, pool_reused=pool_reused,
            chunks=tuple(chunk_stats))
        return done, stats

    @staticmethod
    def default_chunk_size(specs: int, workers: int) -> int:
        """Four chunks per worker: small enough to even out a straggling
        chunk, large enough to amortise the pickle round-trip."""
        return max(1, -(-specs // (workers * 4)))

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        """Prefer fork (cheap, Linux default); fall back elsewhere."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
