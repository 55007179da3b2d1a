"""``repro profile`` — one profiled run of a registered experiment.

``run_profile(name)`` executes the experiment **once**, serially, under
three observers that read without perturbing: the harness's own
telemetry session (every lookup emits the spans the budget and
critical-path analyzers need), the
:func:`repro.netsim.observe_simulators` hook (event-loop counters), and
one ``cProfile.Profile`` around the whole run, which feeds the
hottest-functions table (the executor's own frames included).
Everything reported is either simulated time or a deterministic count;
how fast the simulator itself runs is ``bench/``'s question
(``queries_per_s``, ``netsim.events_per_s``), measured with no
profiler attached.

Trials run serially (``jobs=1``): the counters and the profiler live
in this process, and a profile sharded over workers would measure the
pool, not the code.  Profiling observes the interpreter only — the
trial results and telemetry are byte-identical with it on or off,
which the test suite asserts via ``result_digest``.

Artifacts: ``<name>-budget.json`` (the ``repro-budget-v1`` document
``repro slo`` consumes) and ``<name>-profile.folded`` (collapsed stacks
for a flamegraph).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import telemetry as _telemetry
from repro.netsim import Simulator, observe_simulators
from repro.profile.budget import BudgetReport, budget_report
from repro.profile.profiler import (ProfileEntry, collapsed_stacks,
                                    render_collapsed, render_profile,
                                    simulated_profile)
from repro.runtime import ExperimentRun, TrialExecutor


class ProfileRunResult(NamedTuple):
    """Everything one harness invocation produced."""

    run: ExperimentRun
    report: BudgetReport
    entries: List[ProfileEntry]
    simulators: int
    events: int
    max_heap_depth: int
    top_functions: List[Dict[str, Any]]
    budget_path: str
    folded_path: str


def _top_functions(stats: Dict[Tuple[str, int, str], Tuple[Any, ...]],
                   top: int) -> List[Dict[str, Any]]:
    """The ``top`` hottest rows of a raw cProfile table, by cumtime.

    ``stats`` maps ``(filename, lineno, funcname)`` to
    ``(primcalls, calls, tottime, cumtime, callers)``.  File paths are
    reduced to basenames so the table compares across machines; ties
    break on the rendered name for a total order.
    """
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, funcname), row in stats.items():
        base = os.path.basename(filename) if filename not in ("~", "") else filename
        rows.append({
            "function": f"{base}:{lineno}:{funcname}",
            "calls": row[1],
            "tottime_s": round(row[2], 6),
            "cumtime_s": round(row[3], 6),
        })
    rows.sort(key=lambda entry: (-float(entry["cumtime_s"]),
                                 str(entry["function"])))
    return rows[:top]


def run_profile(name: str,
                overrides: Optional[Dict[str, object]] = None,
                out_dir: str = ".",
                top: int = 15) -> ProfileRunResult:
    """Profile one registered experiment end to end and write artifacts."""
    from repro.experiments.registry import builtin_registry
    experiment = builtin_registry().get(name)

    simulators: List[Simulator] = []
    previous = _telemetry.get_default()
    session = _telemetry.Telemetry()
    _telemetry.set_default(session)
    observe_simulators(simulators.append)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run = TrialExecutor().run(experiment, overrides)
    finally:
        profiler.disable()
        observe_simulators(None)
        _telemetry.set_default(previous)

    spans = session.tracer.finished
    report = budget_report(spans)
    os.makedirs(out_dir, exist_ok=True)
    budget_path = os.path.join(out_dir, f"{name}-budget.json")
    folded_path = os.path.join(out_dir, f"{name}-profile.folded")
    report.write(budget_path)
    with open(folded_path, "w", encoding="utf-8") as handle:
        handle.write(render_collapsed(collapsed_stacks(spans)))
    return ProfileRunResult(
        run=run, report=report, entries=simulated_profile(spans),
        simulators=len(simulators),
        events=sum(sim.events_processed for sim in simulators),
        max_heap_depth=max((sim.max_queue_depth for sim in simulators),
                           default=0),
        # typeshed does not declare ``Stats.stats``, the raw table.
        top_functions=_top_functions(
            getattr(pstats.Stats(profiler), "stats"), top),
        budget_path=budget_path, folded_path=folded_path)


def render_summary(result: ProfileRunResult, top: int = 15) -> str:
    """Human-readable harness output: budget, sim profile, counters."""
    lines = ["== latency budget (simulated ms) ==",
             result.report.render(), "",
             "== simulated-time profile ==",
             render_profile(result.entries, limit=top),
             "",
             "== simulator counters ==",
             f"{result.simulators} simulators, {result.events} events, "
             f"heap depth {result.max_heap_depth}",
             f"artifacts: {result.budget_path}, {result.folded_path}"]
    if result.top_functions:
        lines.append("hottest functions (cProfile, by cumulative time):")
        for row in result.top_functions:
            lines.append(f"  {row['cumtime_s']:9.4f} s  "
                         f"{row['calls']:9d} calls  {row['function']}")
    return "\n".join(lines)
