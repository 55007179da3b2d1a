"""``repro profile`` — one observed run of a registered experiment.

``run_profile(name)`` executes the experiment **once**, serially, under
two observers that read without perturbing: the harness's own
telemetry session (every lookup emits the spans the budget and
critical-path analyzers need) and the
:func:`repro.netsim.observe_simulators` hook (event-loop counters).
Everything reported is either simulated time or a deterministic count,
so two runs print the same bytes; how fast the simulator itself runs
is ``bench/``'s question (``queries_per_s``, ``netsim.events_per_s``).

Trials run serially (``jobs=1``): the simulator counters live in this
process.  Observing changes nothing — the trial results are
byte-identical with the harness on or off, which the test suite
asserts via ``result_digest``.

Artifact: ``<name>-budget.json``, the ``repro-budget-v1`` document
``repro slo`` and the claim sweep read.  A run with a failed trial
writes none: its budget would be missing the failed trials' rows.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional

from repro import telemetry as _telemetry
from repro.netsim import Simulator, observe_simulators
from repro.profile.budget import BudgetReport, budget_report
from repro.runtime import ExperimentRun, TrialExecutor


class ProfileRunResult(NamedTuple):
    """Everything one harness invocation produced."""

    run: ExperimentRun
    report: BudgetReport
    simulators: int
    events: int
    max_heap_depth: int
    #: ``None`` when a trial failed: a partial budget is not written.
    budget_path: Optional[str]


def run_profile(name: str,
                overrides: Optional[Dict[str, object]] = None,
                out_dir: str = ".") -> ProfileRunResult:
    """Run one registered experiment observed, and write its budget
    unless a trial failed."""
    from repro.experiments.registry import builtin_registry
    experiment = builtin_registry().get(name)

    simulators: List[Simulator] = []
    previous = _telemetry.get_default()
    session = _telemetry.Telemetry()
    _telemetry.set_default(session)
    observe_simulators(simulators.append)
    try:
        run = TrialExecutor().run(experiment, overrides)
    finally:
        observe_simulators(None)
        _telemetry.set_default(previous)

    report = budget_report(session.tracer.finished)
    budget_path: Optional[str] = None
    if not run.failures:
        os.makedirs(out_dir, exist_ok=True)
        budget_path = os.path.join(out_dir, f"{name}-budget.json")
        report.write(budget_path)
    return ProfileRunResult(
        run=run, report=report, simulators=len(simulators),
        events=sum(sim.events_processed for sim in simulators),
        max_heap_depth=max((sim.max_queue_depth for sim in simulators),
                           default=0),
        budget_path=budget_path)


def render_summary(result: ProfileRunResult) -> str:
    """Human-readable harness output: budget, counters, artifact."""
    return "\n".join([
        "== latency budget (simulated ms) ==",
        result.report.render(), "",
        "== simulator counters ==",
        f"{result.simulators} simulators, {result.events} events, "
        f"heap depth {result.max_heap_depth}",
        f"artifact: {result.budget_path}"])
