"""Sharded trial execution with per-trial fault isolation.

:class:`TrialExecutor` runs an :class:`~repro.runtime.experiment.Experiment`'s
trial plan through one trial loop, :func:`_run_chunk`, in one of two places:

* **serial** (``jobs=1``) — one chunk of every spec, in this process;
* **pool** (``jobs=N``) — chunks of specs pickled to a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` (see
  :func:`get_worker_pool`), collected with ``map``, which returns results
  in input order.

Both backends uphold the same contract:

* results are merged strictly in **spec order**, never completion
  order, so the published artifact is byte-identical across backends;
* a trial that raises becomes a structured :class:`TrialFailure` on its
  :class:`TrialOutcome` instead of killing the sweep — the remaining
  trials still run, and ``merge`` is skipped only when something failed;
* a worker process that dies (a signal, the OOM killer) fails the whole
  sweep: ``run`` raises ``BrokenProcessPool`` and returns no
  :class:`ExperimentRun`, and the broken pool is dropped so the next
  sweep starts a fresh one;
* when ambient telemetry is installed, each trial collects into its own
  fresh facade and the snapshots are merged after the barrier, in spec
  order (see :mod:`repro.runtime.capture`).

Workers never import experiment modules by name — the experiment
*instance* travels inside the pickled task, and unpickling performs the
import.  That keeps ``runtime`` free of any ``experiments`` import edge
(the layering contract forbids the cycle, lazy imports included).
``multiprocessing`` and ``concurrent.futures`` are imported by the pool
backend only, so a serial run never loads them.
"""

from __future__ import annotations

import atexit
import time
import traceback
from itertools import repeat
from typing import (TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from repro import telemetry as _telemetry
from repro.runtime.capture import (TelemetrySnapshot, begin_trial_capture,
                                   end_trial_capture, merge_snapshot)
from repro.telemetry import TelemetryConfig
from repro.runtime.experiment import Experiment
from repro.runtime.spec import TrialSpec

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


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


class _TrialDone(NamedTuple):
    outcome: TrialOutcome
    snapshot: Optional[TelemetrySnapshot]


#: One chunk's trials, in spec order, and its wall-clock milliseconds.
_ChunkDone = Tuple[List[_TrialDone], float]


def _run_chunk(experiment: Experiment, specs: Sequence[TrialSpec],
               capture: Optional[TelemetryConfig]) -> _ChunkDone:
    """The one trial loop: run ``specs`` back to back, in order.

    Each trial runs under a fresh telemetry facade built from ``capture``
    (the session's config, so sampling and window decisions match it on
    every backend), or none.  Module-level so worker processes resolve it
    by qualified name; the serial backend calls it in-process.  The
    chunk's wall time is the one executor fact only the worker can
    measure.
    """
    started = time.perf_counter()
    done: List[_TrialDone] = []
    for spec in specs:
        facade = begin_trial_capture(capture)
        failure: Optional[TrialFailure] = None
        payload: Optional[object] = None
        try:
            payload = experiment.run_trial(spec)
        except Exception as error:  # the trial boundary: whatever a trial raises becomes data
            failure = TrialFailure(
                spec=spec, error=type(error).__name__,
                message=str(error), traceback=traceback.format_exc())
        done.append(_TrialDone(TrialOutcome(spec, payload, failure),
                               end_trial_capture(facade)))
    wall_ms = (time.perf_counter() - started) * 1000.0
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
#: when a run needs more workers than it has or a worker died, and an
#: ``atexit`` hook shuts it down before module teardown (the pool machinery
#: is imported lazily, so teardown would clear it before this module).
#: Reuse is invisible to results: every trial installs its own fresh
#: telemetry facade and derives its own RNG streams, so worker process
#: history cannot leak into any payload.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def get_worker_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown (never shrunk) to at least ``workers``.

    Workers are forked where the platform allows it (cheap, the Linux
    default); with ``fork`` the pool starts every worker before its
    management thread, so no fork happens from a multi-threaded process.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        shutdown_worker_pool()
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        _POOL = ProcessPoolExecutor(workers, mp_context=context)
        _POOL_WORKERS = workers
    return _POOL


def warm_worker_pool(workers: int) -> None:
    """Ensure ``workers`` live processes exist before timing anything.

    Benchmarks call this so the first sample doesn't pay pool fork-up
    (the cold-start outlier the runtime bench used to record).
    """
    list(get_worker_pool(workers).map(_warm_noop, range(workers)))


def shutdown_worker_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on next use)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_worker_pool)


# -- backends: where the trial loop runs ---------------------------------------


def _run_serial(experiment: Experiment, specs: Sequence[TrialSpec],
                capture: Optional[TelemetryConfig],
                session: Optional[_telemetry.Telemetry]) -> List[_ChunkDone]:
    try:
        return [_run_chunk(experiment, specs, capture)]
    finally:
        # Every trial cleared the ambient default on its way out.
        _telemetry.set_default(session)


def _run_pool(workers: int, experiment: Experiment,
              chunks: Sequence[Sequence[TrialSpec]],
              capture: Optional[TelemetryConfig]) -> List[_ChunkDone]:
    from concurrent.futures.process import BrokenProcessPool
    pool = get_worker_pool(workers)
    try:
        # map returns results in input order, so flattening the chunk
        # results reads out exactly the spec order.
        return list(pool.map(_run_chunk, repeat(experiment), chunks,
                             repeat(capture)))
    except BrokenProcessPool:
        # A worker died mid-chunk and took its trials with it: the sweep
        # fails, and the next one forks a fresh pool.
        shutdown_worker_pool()
        raise


class TrialExecutor:
    """Runs trial plans serially or across a process pool."""

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, experiment: Experiment,
            overrides: Optional[Mapping[str, object]] = None,
            ) -> ExperimentRun:
        """Expand, execute (sharded if asked), merge, and account.

        Raises ``BrokenProcessPool`` when a worker process dies mid-sweep.
        """
        params = experiment.resolve_params(overrides)
        specs = experiment.trials(params)
        session = _telemetry.get_default()
        capture = session.config() if session is not None else None
        pooled = self.jobs > 1 and len(specs) > 1
        if pooled:
            workers = min(self.jobs, len(specs))
            # Chunking changes how work is batched across processes,
            # never what any trial computes or the order results merge in.
            chunk_size = self.default_chunk_size(len(specs), workers)
            pool_reused = _POOL is not None and _POOL_WORKERS >= workers
            chunks = _run_pool(workers, experiment, [
                specs[at:at + chunk_size]
                for at in range(0, len(specs), chunk_size)], capture)
        else:
            workers, chunk_size, pool_reused = 1, max(1, len(specs)), False
            chunks = _run_serial(experiment, specs, capture, session)
        done = [item for chunk_done, _ in chunks for item in chunk_done]
        if session is not None:
            # After the barrier, in spec order — never completion order.
            for item in done:
                merge_snapshot(session, item.snapshot)
        outcomes = [item.outcome for item in done]
        result: Optional[object] = None
        if all(outcome.failure is None for outcome in outcomes):
            result = experiment.merge(
                params, [outcome.payload for outcome in outcomes])
        return ExperimentRun(
            experiment=experiment.name,
            params=tuple(sorted(params.items(), key=lambda item: item[0])),
            result=result, outcomes=outcomes,
            executor_stats=ExecutorStats(
                backend="pool" if pooled else "serial", jobs=self.jobs,
                workers=workers, chunk_size=chunk_size,
                pool_reused=pool_reused, chunks=tuple(
                    _chunk_stats(index, chunk_done, wall_ms)
                    for index, (chunk_done, wall_ms) in enumerate(chunks))))

    @staticmethod
    def default_chunk_size(specs: int, workers: int) -> int:
        """Four chunks per worker: small enough to even out a straggling
        chunk, large enough to amortise the pickle round-trip."""
        return max(1, -(-specs // (workers * 4)))
