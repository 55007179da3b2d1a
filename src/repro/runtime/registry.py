"""Name → experiment registry that drives the CLI.

The registry replaces the CLI's historical if/elif dispatch: it is one
ordered table of artifact name → loader (in publication order), the CLI
asks :meth:`cli_params` for the union of declared tunables and grows one
argparse flag per parameter, and ``experiment all`` is just iteration.

A loader runs only when its experiment is asked for: :meth:`get` runs
one, :meth:`names` runs none, and iterating (which :meth:`cli_params`
does) runs every loader in table order.  The registry imports nothing
itself; :mod:`repro.experiments.registry` gives it loaders that import
one artifact module each, so a fresh interpreter that runs one artifact
compiles that artifact's modules and no other's.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, Iterator, List, Mapping

from repro.runtime.experiment import Experiment, Param


class ExperimentRegistry:
    """An ordered table of artifact name to the loader of its experiment.

    The experiment a loader returns must be named as the table files it.
    """

    def __init__(self,
                 loaders: Mapping[str, Callable[[], Experiment]]) -> None:
        self._loaders: Dict[str, Callable[[], Experiment]] = dict(loaders)
        self._loaded: Dict[str, Experiment] = {}

    def get(self, name: str) -> Experiment:
        """The experiment filed as ``name``, running its loader once.

        Raises ``KeyError`` for a name the table lacks, and ``ValueError``
        when the loaded experiment declares another name.
        """
        experiment = self._loaded.get(name)
        if experiment is not None:
            return experiment
        try:
            loader = self._loaders[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r} (registered: "
                f"{', '.join(self.names())})") from None
        experiment = loader()
        if experiment.name != name:
            raise ValueError(
                f"the experiment registered as {name!r} is named "
                f"{experiment.name!r}")
        self._loaded[name] = experiment
        return experiment

    def names(self) -> List[str]:
        """Registered names, in table (publication) order; loads nothing."""
        return list(self._loaders)

    def __iter__(self) -> Iterator[Experiment]:
        return (self.get(name) for name in self._loaders)

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
            parser.add_argument("--" + param.name.replace("_", "-"),
                                type=param.kind, default=param.default,
                                help=param.help, dest=param.name)
