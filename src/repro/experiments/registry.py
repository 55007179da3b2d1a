"""The built-in experiment registry: every paper artifact, in order.

``builtin_registry()`` is what the CLI dispatches through — one
:class:`~repro.runtime.ExperimentRegistry` over :data:`ARTIFACTS`, the
table of artifact name → module in publication order (the order
``experiment all`` runs them).  Each artifact's loader imports its
module when the artifact is first asked for, so running one artifact
loads that artifact only.  Adding an artifact means adding its row here;
no CLI edit is needed, the registry generates the flags.
"""

from __future__ import annotations

import functools
import importlib

from repro.runtime import Experiment, ExperimentRegistry

#: Artifact name → the module whose ``EXPERIMENT`` it is, in publication
#: order.
ARTIFACTS = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "figure2": "repro.experiments.figure2",
    "figure3": "repro.experiments.figure3",
    "figure5": "repro.experiments.figure5",
    "ecs": "repro.experiments.ecs",
    "mislocalization": "repro.experiments.mislocalization",
    "disaggregation": "repro.experiments.disaggregation",
    "envelope-sweep": "repro.experiments.envelope_sweep",
    "overload": "repro.experiments.overload",
    "access-latency": "repro.experiments.access_latency",
    "capacity": "repro.experiments.capacity",
    "churn": "repro.experiments.churn",
    "population": "repro.experiments.population",
}


def _load(module: str) -> Experiment:
    """The ``EXPERIMENT`` that ``module`` declares, importing it."""
    return importlib.import_module(module).EXPERIMENT


def builtin_registry() -> ExperimentRegistry:
    """A fresh registry of every paper artifact, in publication order."""
    return ExperimentRegistry({name: functools.partial(_load, module)
                               for name, module in ARTIFACTS.items()})
