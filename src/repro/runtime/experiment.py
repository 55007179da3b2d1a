"""The declarative experiment protocol.

An :class:`Experiment` is a stateless, picklable recipe in three pure
parts:

* :meth:`Experiment.trials` expands resolved parameters into an ordered
  list of :class:`~repro.runtime.spec.TrialSpec` cells;
* :meth:`Experiment.run_trial` executes one cell in its own fresh
  ``Simulator`` and returns a picklable payload;
* :meth:`Experiment.merge` folds the payloads — **always in spec
  order, never completion order** — back into the published artifact.

Because every observable comes out of ``merge`` over spec-ordered
payloads, a serial run and an N-way sharded run produce byte-identical
rendered output and JSON digests; :mod:`repro.runtime.executor` is the
machinery that exploits this.

Experiments declare their tunables as :class:`Param` rows, which is
what lets the CLI generate its flags from the registry instead of
hand-maintaining an if/elif dispatch, and their shape claims as
:class:`Claim` rows, which one evaluator, :meth:`Experiment.check_shape`,
checks and renders.
"""

from __future__ import annotations

import abc
import hashlib
import json
import operator
from typing import (Callable, ClassVar, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.runtime.spec import TrialSpec, freeze_cell


class Param(NamedTuple):
    """One declared experiment parameter.

    ``kind`` is the argparse-style converter (``int``, ``float``, or
    ``bool`` for a store-true flag); ``cli=False`` keeps a parameter
    programmatic-only (it still resolves through ``run_serial``
    overrides, it just grows no command-line flag).
    """

    name: str
    kind: Callable[[str], object]
    default: object
    help: str = ""
    cli: bool = True


#: The comparisons a :class:`Claim` may state.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq}


class Claim(NamedTuple):
    """One shape claim: ``value op bound`` must hold.

    ``name`` says what is measured, never the measurement, and is unique
    within an experiment, so one claim can be followed across seeds.  A
    yes/no fact is stated as a count that must be 0.
    """

    name: str
    value: float
    op: str
    bound: float

    def holds(self) -> bool:
        """Whether ``value op bound``."""
        return _OPS[self.op](self.value, self.bound)


class Experiment(abc.ABC):
    """A declarative trial plan: expand, run each cell, merge."""

    #: Registry/CLI name of the artifact (``figure5``, ``envelope-sweep``).
    name: ClassVar[str] = ""
    #: One-line description shown in CLI help.
    title: ClassVar[str] = ""
    #: Declared tunables; :meth:`resolve_params` fills the defaults.
    params: ClassVar[Tuple[Param, ...]] = ()

    # -- parameters ---------------------------------------------------------

    def resolve_params(
            self, overrides: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Declared defaults with ``overrides`` applied; rejects unknowns."""
        resolved: Dict[str, object] = {param.name: param.default
                                       for param in self.params}
        if overrides:
            unknown = sorted(set(overrides) - set(resolved))
            if unknown:
                raise ValueError(
                    f"experiment {self.name!r} has no parameter(s) "
                    f"{', '.join(unknown)} (declared: "
                    f"{', '.join(p.name for p in self.params) or 'none'})")
            resolved.update(overrides)
        return resolved

    # -- the three pure parts ----------------------------------------------

    @abc.abstractmethod
    def trials(self, params: Mapping[str, object]) -> List[TrialSpec]:
        """Expand resolved ``params`` into the ordered trial plan."""

    @abc.abstractmethod
    def run_trial(self, spec: TrialSpec) -> object:
        """Execute one cell in a fresh simulator; return picklable data."""

    @abc.abstractmethod
    def merge(self, params: Mapping[str, object],
              payloads: Sequence[object]) -> object:
        """Fold spec-ordered payloads into the published result."""

    # -- presentation -------------------------------------------------------

    def render_result(self, result: object) -> str:
        """The artifact's printed form (defaults to ``result.render()``)."""
        render = getattr(result, "render")
        text: str = render()
        return text

    def claims(self, result: object) -> List[Claim]:
        """The shape claims ``result`` states (none by default)."""
        return []

    def check_shape(self, result: object) -> List[str]:
        """Violated shape claims for ``result`` (empty = all hold)."""
        return [f"{claim.name}: {claim.value:g} not {claim.op} "
                f"{claim.bound:g}"
                for claim in self.claims(result) if not claim.holds()]

    # -- convenience --------------------------------------------------------

    def spec(self, index: int, seed: int, **cell: object) -> TrialSpec:
        """A :class:`TrialSpec` for this experiment (canonical cell form)."""
        return TrialSpec(experiment=self.name, index=index,
                         cell=freeze_cell(**cell), seed=seed)

    def run_serial(self, **overrides: object) -> object:
        """Expand, run every trial in-process, merge.

        The plain programmatic entry point: ``overrides`` replace
        declared :class:`Param` defaults, a failing trial raises.  The
        sharded path lives in
        :class:`repro.runtime.executor.TrialExecutor`.
        """
        params = self.resolve_params(overrides)
        specs = self.trials(params)
        return self.merge(params, [self.run_trial(spec) for spec in specs])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {len(self.params)} params)"


def jsonify(value: object) -> object:
    """``value`` as JSON-serializable data, recursing into containers.

    NamedTuples become field dicts, mappings stringify their keys, and
    anything non-primitive falls back to ``repr`` — enough structure
    for a stable digest of any experiment result in this repo.
    """
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        fields: Mapping[str, object] = value._asdict()
        return {key: jsonify(item) for key, item in fields.items()}
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def result_digest(result: object) -> str:
    """A sha256 hex digest of ``result``'s canonical JSON form.

    The determinism contract's currency: serial and sharded runs of the
    same experiment must produce equal digests.
    """
    document = json.dumps(jsonify(result), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
