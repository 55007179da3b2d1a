"""The six workloads: what runs, at what size, and what counts as one operation.

Sizes are written at the scale the issue fixed them (a 4-10 s run each);
``scale`` multiplies every one of them by the same factor.  The harness
default is ``SCALE = 0.1``, which turns one run into a 0.3-1 s *unit* that
a measuring child repeats until its share of ``--seconds`` is used up.

Every unit runs at ``jobs=1``.  This sandbox has two virtual CPUs of a shared
host: a unit that needs both at once is as slow as the busier of them, and its
wall time followed the neighbours, not the program.  The worker pool is
measured in the per-layer pass instead (``pool_jobs``), where nothing is gated.

Imports nothing from ``repro`` at module level, so the harness can read the
table without the package on its path; the functions below receive
``repro.runtime.ExperimentRun`` objects from the child.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Common size factor applied to every workload (recorded in every output).
SCALE = 0.1

#: ``TelemetryConfig`` fields of the sampled capture ``population_sampled``
#: runs under — the shape the CI population smoke passes on the command line.
SAMPLED = {"trace_sample": 0.05, "window_ms": 60000.0, "tail_capacity": 32}

#: One unit's executor runs: ``repro.runtime.ExperimentRun`` objects.
Runs = List[Any]

Overrides = Dict[str, object]


def _figure5_plan(seed: int, scale: float) -> List[Overrides]:
    return [{"queries": max(1, round(4000 * scale)), "seed": seed}]


def _capacity_plan(seed: int, scale: float) -> List[Overrides]:
    return [{"duration_ms": 6000.0 * scale, "seed": seed}]


def _churn_plan(seed: int, scale: float) -> List[Overrides]:
    return [{"seed": seed + offset}
            for offset in range(max(1, round(20 * scale)))]


def _population_plan(target: int, **fixed: object,
                     ) -> Callable[[int, float], List[Overrides]]:
    def plan(seed: int, scale: float) -> List[Overrides]:
        return [dict(fixed, seed=seed,
                     target_queries=max(100, round(target * scale)))]
    return plan


def _lookups(runs: Runs) -> int:
    """Measured lookups: every trial issues ``queries`` of them."""
    return sum(len(run.outcomes) * int(dict(run.params)["queries"])
               for run in runs)


def _offered(runs: Runs) -> int:
    return sum(point.sent for run in runs for point in run.result.points)


def _simulated(runs: Runs) -> int:
    return sum(row.queries for run in runs for row in run.result.rows)


def _figure5_sim(runs: Runs) -> Dict[str, float]:
    from repro.experiments.figure5 import PAPER_MEANS
    means = runs[0].result.means()
    errors = [abs(means[key] - paper) / paper
              for key, paper in PAPER_MEANS.items()]
    return {"sim.fig5_paper_err_pct": 100.0 * sum(errors) / len(errors),
            "sim.dns_p50_ms": runs[0].result.row("mec-ldns-mec-cdns")
                                     .latency.median}


def _capacity_sim(runs: Runs) -> Dict[str, float]:
    return {"sim.total_p99_ms": runs[0].result.points[0].p99_ms}


def _no_sim(runs: Runs) -> Dict[str, float]:
    return {}


def _population_sim(runs: Runs) -> Dict[str, float]:
    row = runs[0].result.row("mec-ldns-mec-cdns")
    return {"sim.localization": row.localization,
            "sim.dns_p50_ms": row.dns.p50,
            "sim.total_p99_ms": row.total.p99,
            "workload.ranklru.hit_ratio": row.hit_rate}


class Workload(NamedTuple):
    name: str
    experiment: str
    #: ``TelemetryConfig`` fields of the ambient telemetry installed around
    #: every run, or ``None`` for telemetry off.
    telemetry: Optional[Dict[str, float]]
    #: ``(seed, scale)`` -> one override dict per executor run of a unit.
    plan: Callable[[int, float], List[Overrides]]
    #: The operation ``queries_per_s`` counts, summed over a unit's runs.
    ops: Callable[[Runs], int]
    #: Simulated statistics: exact per seed, reported, never gated.
    sim: Callable[[Runs], Dict[str, float]]
    #: A workload whose digest must equal this one's at equal seed and size.
    twin: Optional[str] = None
    #: Workers of the pool the per-layer pass also runs the unit on, for the
    #: ``runtime.executor.*`` metrics; 0 for none.
    pool_jobs: int = 0


_SERIAL = dict(deployment="mec-ldns-mec-cdns", allocation="content")

WORKLOADS: Tuple[Workload, ...] = (
    Workload("figure5_scaled", "figure5", None, _figure5_plan,
             _lookups, _figure5_sim),
    Workload("capacity_openloop", "capacity", None, _capacity_plan,
             _offered, _capacity_sim),
    Workload("churn_seeds", "churn", None, _churn_plan,
             _lookups, _no_sim),
    Workload("population_serial", "population", None,
             _population_plan(1_000_000, **_SERIAL),
             _simulated, _population_sim),
    Workload("population_sampled", "population", SAMPLED,
             _population_plan(1_000_000, **_SERIAL),
             _simulated, _population_sim, twin="population_serial"),
    Workload("population_grid", "population", None,
             _population_plan(200_000, deployment="all",
                              allocation="client-bounded"),
             _simulated, _population_sim, pool_jobs=2),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
