"""Unified experiment runtime: declarative trial plans, sharded execution.

The pieces, bottom-up:

* :mod:`repro.runtime.spec` — :class:`TrialSpec` cells and the
  :func:`derive_seed` rule;
* :mod:`repro.runtime.experiment` — the :class:`Experiment` protocol
  (expand → run each cell → merge in spec order) plus
  :func:`result_digest` for the determinism contract;
* :mod:`repro.runtime.capture` — per-trial telemetry snapshots so
  exported traces/metrics match between backends;
* :mod:`repro.runtime.executor` — :class:`TrialExecutor`: one trial
  loop, run in-process or on a process pool, with per-trial fault
  isolation;
* :mod:`repro.runtime.registry` — :class:`ExperimentRegistry`, the
  CLI's dispatch table.

This package deliberately never imports :mod:`repro.experiments`: the
concrete experiments register *into* it, and executor workers receive
pickled :class:`Experiment` instances rather than importing modules by
name.  See ``docs/RUNTIME.md`` for the full tour.
"""

from repro.runtime.capture import (TelemetrySnapshot, begin_trial_capture,
                                   end_trial_capture, merge_snapshot)
from repro.runtime.executor import (ChunkStats, ExecutorStats, ExperimentRun,
                                    TrialExecutor, TrialFailure, TrialOutcome,
                                    shutdown_worker_pool, warm_worker_pool)
from repro.runtime.experiment import (Claim, Experiment, Param, jsonify,
                                      result_digest)
from repro.runtime.registry import ExperimentRegistry
from repro.runtime.spec import CellItems, TrialSpec, derive_seed, freeze_cell

__all__ = [
    "CellItems",
    "ChunkStats",
    "Claim",
    "ExecutorStats",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentRun",
    "Param",
    "TelemetrySnapshot",
    "TrialExecutor",
    "TrialFailure",
    "TrialOutcome",
    "TrialSpec",
    "begin_trial_capture",
    "derive_seed",
    "end_trial_capture",
    "freeze_cell",
    "jsonify",
    "shutdown_worker_pool",
    "warm_worker_pool",
    "merge_snapshot",
    "result_digest",
]
