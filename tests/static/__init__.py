"""Static analysis for the repo's determinism and architecture invariants.

The simulator's headline guarantee — byte-identical deterministic replay,
with telemetry on or off — is enforced at runtime by digest assertions,
but those only fire long after a hazard is merged.  These passes check
the invariants *statically*, over the syntax of ``src/repro``:

* :mod:`tests.static.determinism` — wall-clock and entropy sources,
  module-level ``random`` draws, unseeded or hidden default RNGs, and
  set-iteration order escaping into behaviour (``DET`` rules);
* :mod:`tests.static.layering` — the import contract: the package DAG,
  ``telemetry`` importing ``errors`` only, and no third-party import
  (``ARCH`` rules);
* :mod:`tests.static.races` — a call-graph pass rooted at the executor's
  worker entry points: writes to module/class state and process-dependent
  values in worker-reachable code (``RACE`` rules);
* :mod:`tests.static.hotpath` — closures allocated per scheduled event in
  the hot modules (``HOT002``).

Nothing in the simulator imports this package: its one caller is the
clean-tree test (``tests/check/test_runner.py``), which groups the
findings on ``src/repro`` by enclosing def and rule and requires them to
equal the exemption rows of ``CLASSES`` in ``scripts/line_census.py``.
A rule stays only while it has a finding on the real tree that was fixed
or justified; ``docs/DETERMINISM.md`` records the evidence.
"""

from __future__ import annotations

import functools
import importlib.util
from collections import Counter
from types import ModuleType
from typing import Dict, List

from tests.static import determinism, hotpath, layering, races
from tests.static.index import ROOT, Finding, Module, load

#: rule id -> one-line description, across all passes.
RULES: Dict[str, str] = {
    **determinism.RULES, **layering.RULES, **races.RULES, **hotpath.RULES,
}


@functools.lru_cache(maxsize=None)
def line_census() -> ModuleType:
    """``scripts/line_census.py``, which holds the one exemption table,
    ``CLASSES``: loaded once, as the censuses and the clean-tree test
    share it."""
    spec = importlib.util.spec_from_file_location(
        "line_census", ROOT / "scripts" / "line_census.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def analyze(modules: List[Module]) -> List[Finding]:
    """Every finding of every rule, sorted by location."""
    return sorted(determinism.analyze(modules) + layering.analyze(modules)
                  + races.analyze(modules) + hotpath.analyze(modules))


def exemption_errors(findings: List[Finding],
                     excused: Dict[str, int]) -> List[str]:
    """How ``findings`` differ from the exemption rows ``excused``.

    A row is keyed ``file::qualname[RULE]`` and gives the exact number of
    ``RULE`` findings inside that def.  A finding no row names, a row
    whose count is off, and a row that excuses nothing are each an error.
    """
    def key(finding: Finding) -> str:
        scope = load(ROOT / finding.path).enclosing(finding.line)
        return f"{finding.path}::{scope}[{finding.rule}]"

    found = Counter(map(key, findings))
    errors = [f"{finding.path}:{finding.line}: {finding.rule} "
              f"{finding.message}" for finding in findings
              if key(finding) not in excused]
    errors += [f"{row}: {found[row]} finding(s), the table excuses {count}"
               for row, count in sorted(excused.items())
               if found[row] != count]
    return errors
