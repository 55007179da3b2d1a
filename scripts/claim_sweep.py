#!/usr/bin/env python3
"""How close each shape claim is to flipping: the claim sweep.

    python3 scripts/claim_sweep.py > claim-sweep.md

Runs every registered artifact that states shape claims at its declared
defaults for seeds 1-32, through ``TrialExecutor(jobs=2)``, then the
``repro slo`` rows (``repro.profile.slo``) over the two artifacts CI gates
with them: ``repro profile figure5``'s budget, and the population run's
time-series at CI's telemetry flags.  It prints one Markdown row per
claim: how many seeds it held at, and the seed where its margin was
smallest, with the claim's value, bound and margin there.  The
margin is positive when the claim holds: ``(bound - value) / |bound|`` for
``<`` and ``<=``, its mirror image for ``>`` and ``>=``, the plain
difference when the bound is 0, and ``-|value - bound|`` for ``==``.
EXPERIMENTS.md carries the table, and CI fails when it differs from what
this prints.  Stdlib only, no flags; about two minutes on two cores.
"""

from __future__ import annotations

import functools
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry  # noqa: E402
from repro.experiments.registry import builtin_registry  # noqa: E402
from repro.profile.harness import run_profile  # noqa: E402
from repro.profile.slo import budget_claims, telemetry_claims  # noqa: E402
from repro.runtime import Claim, Experiment, TrialExecutor  # noqa: E402

SEEDS = range(1, 33)


def margin(claim: Claim) -> float:
    """Signed distance from flipping; positive when ``claim`` holds."""
    if claim.op == "==":
        return -abs(claim.value - claim.bound) + 0.0  # no "-0"
    gap = (claim.bound - claim.value if claim.op in ("<", "<=")
           else claim.value - claim.bound)
    return gap / abs(claim.bound) if claim.bound else gap


def sweep(label: str, claims_at: Callable[[int], List[Claim]]
          ) -> Dict[str, List[Tuple[int, Claim]]]:
    """Claim name -> (seed, claim) for every seed that states it."""
    found: Dict[str, List[Tuple[int, Claim]]] = {}
    for seed in SEEDS:
        claims = claims_at(seed)
        if len({claim.name for claim in claims}) < len(claims):
            raise SystemExit(f"claim sweep: {label} states a claim name "
                             f"twice at seed {seed}")
        for claim in claims:
            found.setdefault(claim.name, []).append((seed, claim))
    return found


def experiment_claims(executor: TrialExecutor, experiment: Experiment,
                      seed: int, **overrides: object) -> List[Claim]:
    """``experiment``'s shape claims at ``seed``."""
    run = executor.run(experiment, {"seed": seed, **overrides})
    if not run.ok:
        raise SystemExit(f"claim sweep: {experiment.name} seed {seed}: "
                         f"{run.failures[0].describe()}")
    return experiment.claims(run.result)


def budget_rows(seed: int) -> List[Claim]:
    """The ``repro slo`` rows over ``repro profile figure5 --seed SEED``."""
    with tempfile.TemporaryDirectory() as out_dir:
        profiled = run_profile("figure5", {"seed": seed}, out_dir=out_dir)
    return budget_claims(profiled.report.to_dict())


def telemetry_rows(executor: TrialExecutor, experiment: Experiment,
                   seed: int) -> List[Claim]:
    """The ``repro slo`` rows over CI's sampled population artifact."""
    session = telemetry.Telemetry(trace_sample=0.05, window_ms=300000.0)
    telemetry.set_default(session)
    try:
        experiment_claims(executor, experiment, seed, districts=2,
                          target_queries=6000)
    finally:
        telemetry.clear_default()
    return telemetry_claims({"timeseries": session.timeseries.to_dict()})


def main() -> int:
    executor = TrialExecutor(jobs=2)
    registry = builtin_registry()
    sweeps = [(experiment.name, functools.partial(experiment_claims,
                                                  executor, experiment))
              for experiment in registry
              if type(experiment).claims is not Experiment.claims]
    sweeps += [("slo figure5 budget", budget_rows),
               ("slo population telemetry",
                functools.partial(telemetry_rows, executor,
                                  registry.get("population")))]
    lines = [f"Claim sweep: every shape claim at its artifact's declared "
             f"defaults, and every `repro slo` row over the two artifacts "
             f"CI builds, seeds {SEEDS[0]}-{SEEDS[-1]}; the last three "
             f"columns are the seed with the smallest margin.",
             "",
             "| artifact | claim | holds | seed | value op bound | margin |",
             "|---|---|---|---|---|---|"]
    for label, claims_at in sweeps:
        for name, runs in sweep(label, claims_at).items():
            holds = sum(claim.holds() for _, claim in runs)
            seed, worst = min(runs, key=lambda run: (margin(run[1]), run[0]))
            lines.append(f"| {label} | {name} | "
                         f"{holds}/{len(runs)} | {seed} | {worst.value:.4g} "
                         f"{worst.op} {worst.bound:.4g} | "
                         f"{margin(worst):+.3g} |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
