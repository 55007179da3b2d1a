"""The built-in experiment registry: every paper artifact, in order.

``builtin_registry()`` is what the CLI dispatches through — one
:class:`~repro.runtime.ExperimentRegistry` holding all the artifact
recipes in publication order (the order ``experiment all`` runs them).
Adding an artifact means registering it here; no CLI edit is needed,
the registry generates the flags.
"""

from __future__ import annotations

from repro.experiments import (access_latency, capacity, churn,
                               disaggregation, ecs, envelope_sweep,
                               figure2, figure3, figure5,
                               mislocalization, overload, population,
                               table1, table2)
from repro.runtime import ExperimentRegistry


def builtin_registry() -> ExperimentRegistry:
    """A fresh registry of every paper artifact, in publication order."""
    registry = ExperimentRegistry()
    for module in (table1, table2, figure2, figure3, figure5, ecs,
                   mislocalization, disaggregation, envelope_sweep,
                   overload, access_latency, capacity, churn,
                   population):
        registry.register(module.EXPERIMENT)
    return registry
