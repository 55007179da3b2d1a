#!/usr/bin/env python3
"""How close each shape claim is to flipping: the claim sweep.

    python3 scripts/claim_sweep.py > claim-sweep.md

Runs every registered artifact that states shape claims at its declared
defaults for seeds 1-32, through ``TrialExecutor(jobs=2)``, and prints one
Markdown row per claim: how many seeds it held at, and the seed where its
margin was smallest, with the claim's value, bound and margin there.  The
margin is positive when the claim holds: ``(bound - value) / |bound|`` for
``<`` and ``<=``, its mirror image for ``>`` and ``>=``, the plain
difference when the bound is 0, and ``-|value - bound|`` for ``==``.
EXPERIMENTS.md carries the table, and CI fails when it differs from what
this prints.  Stdlib only, no flags; 80-90 s on two cores.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.registry import builtin_registry  # noqa: E402
from repro.runtime import Claim, Experiment, TrialExecutor  # noqa: E402

SEEDS = range(1, 33)


def margin(claim: Claim) -> float:
    """Signed distance from flipping; positive when ``claim`` holds."""
    if claim.op == "==":
        return -abs(claim.value - claim.bound) + 0.0  # no "-0"
    gap = (claim.bound - claim.value if claim.op in ("<", "<=")
           else claim.value - claim.bound)
    return gap / abs(claim.bound) if claim.bound else gap


def sweep(executor: TrialExecutor,
          experiment: Experiment) -> Dict[str, List[Tuple[int, Claim]]]:
    """Claim name -> (seed, claim) for every seed that states it."""
    found: Dict[str, List[Tuple[int, Claim]]] = {}
    for seed in SEEDS:
        run = executor.run(experiment, {"seed": seed})
        if not run.ok:
            raise SystemExit(f"claim sweep: {experiment.name} seed {seed}: "
                             f"{run.failures[0].describe()}")
        claims = experiment.claims(run.result)
        if len({claim.name for claim in claims}) < len(claims):
            raise SystemExit(f"claim sweep: {experiment.name} states a "
                             f"claim name twice at seed {seed}")
        for claim in claims:
            found.setdefault(claim.name, []).append((seed, claim))
    return found


def main() -> int:
    executor = TrialExecutor(jobs=2)
    lines = [f"Claim sweep: every shape claim at its artifact's declared "
             f"defaults, seeds {SEEDS[0]}-{SEEDS[-1]}; the last three "
             f"columns are the seed with the smallest margin.",
             "",
             "| artifact | claim | holds | seed | value op bound | margin |",
             "|---|---|---|---|---|---|"]
    for experiment in builtin_registry():
        if type(experiment).claims is Experiment.claims:
            continue  # states no claims
        for name, runs in sweep(executor, experiment).items():
            holds = sum(claim.holds() for _, claim in runs)
            seed, worst = min(runs, key=lambda run: (margin(run[1]), run[0]))
            lines.append(f"| {experiment.name} | {name} | "
                         f"{holds}/{len(runs)} | {seed} | {worst.value:.4g} "
                         f"{worst.op} {worst.bound:.4g} | "
                         f"{margin(worst):+.3g} |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
