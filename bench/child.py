"""One measuring child: set up, say READY, measure, print one JSON object.

A fresh process per repeat, so that peak RSS and set-up time belong to one
workload alone.  Everything before the ``READY`` line is set-up: importing
``repro``, building the registry, and one warm-up unit at a tenth of the
measured size.  The parent times set-up from spawn to that line.

Two modes.  ``measure`` repeats the workload's unit with nothing attached
until the budget is spent.  ``trace`` runs units untraced (with the simulator
observer on, for the engine counters), on the worker pool if the workload
names one, then traced under ``bench/shims.py``, checks the shim hygiene
rules, and writes the raw spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from time import perf_counter, process_time
from typing import Dict, List

from repro import telemetry
from repro.dnswire.message import clear_wire_memo
from repro.experiments.registry import builtin_registry
from repro.netsim import Simulator, observe_simulators
from repro.runtime import (ExperimentRun, TrialExecutor, result_digest,
                           shutdown_worker_pool, warm_worker_pool)

import shims
from workloads import BY_NAME, Workload

REGISTRY = builtin_registry()

#: Share of a trace-mode budget spent on untraced units; the rest is traced.
UNTRACED_SHARE = 0.4
#: Above this the shims distort more than they show.
OVERHEAD_WARN_PCT = 60.0


def run_unit(workload: Workload, seed: int, scale: float,
             jobs: int = 1, observe: bool = False) -> Dict:
    """Run the workload once at ``scale``; time it and check it."""
    experiment = REGISTRY.get(workload.experiment)
    executor = TrialExecutor(jobs=jobs)
    session = (telemetry.Telemetry(**workload.telemetry)
               if workload.telemetry is not None else None)
    simulators: List[Simulator] = []
    # The one piece of process-wide state: start every unit with the wire
    # memo as a fresh process has it, so units repeat one run, not its tail.
    clear_wire_memo()
    telemetry.set_default(session)
    if observe:
        observe_simulators(simulators.append)
    cpu_started = process_time()
    started = perf_counter()
    try:
        runs: List[ExperimentRun] = [
            executor.run(experiment, overrides)
            for overrides in workload.plan(seed, scale)]
    finally:
        wall_s = perf_counter() - started
        cpu_s = process_time() - cpu_started
        observe_simulators(None)
        telemetry.clear_default()
    unit = {
        "wall_s": wall_s, "cpu_s": cpu_s,
        "ops": workload.ops(runs) if all(run.ok for run in runs) else 0,
        "trials": sum(len(run.outcomes) for run in runs),
        "raised": [failure.describe() for run in runs
                   for failure in run.failures],
        # One digest per unit: sha256 over its runs' result digests.
        "digest": hashlib.sha256("".join(
            result_digest(run.result) if run.ok else "failed"
            for run in runs).encode()).hexdigest(),
        "shape_violations": [violation for run in runs if run.ok
                             for violation in experiment.check_shape(
                                 run.result)],
        "sim": workload.sim(runs) if all(run.ok for run in runs) else {},
        "spans": len(session.tracer.finished) if session else 0,
    }
    if observe:
        unit["netsim"] = {
            "simulators": len(simulators),
            "events": sum(sim.events_processed for sim in simulators),
            "max_queue_depth": max(
                (sim.max_queue_depth for sim in simulators), default=0)}
    stats = runs[0].executor_stats
    if stats is not None and stats.backend == "pool":
        unit["chunk_ms"] = [chunk.wall_ms for chunk in stats.chunks]
        unit["workers"] = stats.workers
    return unit


def run_for(budget_s: float, **unit_args: object) -> List[Dict]:
    """Units back to back for about ``budget_s`` (at least one): stops where
    one more unit would overshoot by more than stopping undershoots."""
    units = []
    deadline = perf_counter() + budget_s
    while True:
        units.append(run_unit(**unit_args))
        if deadline - perf_counter() < units[-1]["wall_s"] / 2:
            return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, scale: float, budget_s: float,
            warm_digest: str) -> Dict:
    units = run_for(budget_s, workload=workload, seed=seed, scale=scale)
    report = {"units": units, "peak_rss_mb": peak_rss_mb()}
    if workload.twin is not None:
        # Untimed cross-check at warm-up size: same seed, same size, the
        # twin's digest must be this workload's.
        twin = run_unit(BY_NAME[workload.twin], seed, scale / 10)
        report["twin_digest_ok"] = twin["digest"] == warm_digest
    return report


def trace(workload: Workload, seed: int, scale: float, budget_s: float,
          spans_out: str) -> Dict:
    # A workload with a pool gives half of the untraced share to it.
    untraced_s = budget_s * UNTRACED_SHARE / (2 if workload.pool_jobs else 1)
    untraced = run_for(untraced_s, workload=workload, seed=seed, scale=scale,
                       observe=True)
    report: Dict = {"untraced": untraced, "peak_rss_mb": peak_rss_mb(),
                    "pooled": None}
    if workload.pool_jobs:
        # The same trials on a warm worker pool: same digest, and the only
        # place the executor's chunking, pickling and merging do real work.
        # Shims and the simulator observer do not cross into the workers.
        warm_worker_pool(workload.pool_jobs)
        report["pooled"] = run_for(untraced_s, workload=workload, seed=seed,
                                   scale=scale, jobs=workload.pool_jobs)
        shutdown_worker_pool()
        report["worker_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    tracer = shims.Shims()
    tracer.calibrate()
    tracer.install()
    started = perf_counter()
    try:
        traced = run_for(budget_s * (1 - UNTRACED_SHARE), workload=workload,
                         seed=seed, scale=scale)
    finally:
        traced_wall_s = perf_counter() - started
        not_restored = tracer.remove()

    # Fastest unit against fastest unit, as run.quiet_wall_s explains.
    overhead_pct = 100.0 * (min(unit["wall_s"] for unit in traced)
                            / min(unit["wall_s"] for unit in untraced) - 1.0)
    if overhead_pct > OVERHEAD_WARN_PCT:
        print(f"warning: {workload.name}: shims add {overhead_pct:.0f} % "
              f"(> {OVERHEAD_WARN_PCT:.0f} %); self times of the cheapest "
              f"points are mostly compensation", file=sys.stderr)
    points = tracer.report()
    report.update({
        "traced": traced,
        "traced_wall_s": traced_wall_s,
        "points": points,
        "outside_s": tracer.outside_s(traced_wall_s),
        "shim_ns": tracer.total_s * 1e9,
        "overhead_pct": overhead_pct,
        "not_restored": not_restored,
    })
    with open(spans_out, "w") as handle:
        json.dump({"workload": workload.name, "seed": seed, "scale": scale,
                   "span_fields": ["point", "start_s", "end_s", "parent"],
                   "spans": tracer.spans, "points": points}, handle)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of measuring after READY")
    parser.add_argument("--spans-out", default=None,
                        help="trace mode: where the raw spans go")
    args = parser.parse_args()
    workload = BY_NAME[args.workload]

    warm = run_unit(workload, args.seed, args.scale / 10)
    print("READY", flush=True)

    if args.spans_out is None:
        report = measure(workload, args.seed, args.scale, args.budget,
                         warm["digest"])
    else:
        report = trace(workload, args.seed, args.scale, args.budget,
                       args.spans_out)
    report["warm_raised"] = warm["raised"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
