"""Name → experiment registry that drives the CLI.

The registry replaces the CLI's historical if/elif dispatch: artifacts
register once (in publication order), the CLI asks :meth:`cli_params`
for the union of declared tunables and grows one argparse flag per
parameter, and ``experiment all`` is just iteration.
"""

from __future__ import annotations

import argparse
from typing import Dict, Iterator, List

from repro.runtime.experiment import Experiment, Param


class ExperimentRegistry:
    """An ordered mapping of artifact name to experiment recipe."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> Experiment:
        """Add ``experiment`` under its declared name; reject collisions."""
        name = experiment.name
        if not name:
            raise ValueError(
                f"{type(experiment).__name__} declares no name")
        if name in self._experiments:
            raise ValueError(f"experiment {name!r} is already registered")
        self._experiments[name] = experiment
        return experiment

    def get(self, name: str) -> Experiment:
        """The experiment registered as ``name``; raises ``KeyError``."""
        try:
            return self._experiments[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r} (registered: "
                f"{', '.join(self.names())})") from None

    def names(self) -> List[str]:
        """Registered names, in registration (publication) order."""
        return list(self._experiments)

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self._experiments.values())

    # -- CLI integration -----------------------------------------------------

    def cli_params(self) -> List[Param]:
        """The union of CLI-visible params, first-seen order.

        Same-named parameters must agree on converter and default across
        experiments — the CLI exposes one flag feeding all of them.
        """
        union: Dict[str, Param] = {}
        for experiment in self:
            for param in experiment.params:
                if not param.cli:
                    continue
                seen = union.get(param.name)
                if seen is None:
                    union[param.name] = param
                elif (seen.kind, seen.default) != (param.kind, param.default):
                    raise ValueError(
                        f"parameter {param.name!r} declared with "
                        f"conflicting kind/default by {experiment.name!r}")
        return list(union.values())

    def add_cli_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Grow one flag per union parameter on ``parser``."""
        for param in self.cli_params():
            flag = "--" + param.name.replace("_", "-")
            if param.kind is bool:
                parser.add_argument(flag, action="store_true",
                                    default=bool(param.default),
                                    help=param.help)
            else:
                parser.add_argument(flag, type=param.kind,
                                    default=param.default, help=param.help,
                                    dest=param.name)
