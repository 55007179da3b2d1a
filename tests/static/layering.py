"""ARCH rules: the import-layering contract checker.

The architecture is a DAG of packages; refactors are safe only while the
edges stay within it.  The contract below is the machine-checked source
of truth (``docs/DETERMINISM.md`` renders it for humans):

* ``errors`` sits at the bottom and imports nothing first-party;
* ``dnswire`` (the wire protocol) depends on the stdlib and ``errors``
  only — it must stay usable without the simulator;
* no layer imports a third-party package: the tree runs on a bare
  interpreter, and a replay digest depends on no installed release;
* ``netsim`` (the scheduler) never imports the protocol layers above it;
* ``telemetry`` is leaf-observed: core layers may *call into* it, but it
  may import ``errors`` only — the zero-perturbation guarantee (replay
  digests identical with telemetry on or off) survives only while
  telemetry cannot reach sim state;
* everything else layers strictly upward, ``cli`` on top.

The contract is a DAG (a test holds it to that), and every observed edge
is either in it or an ``ARCH001``, so an import cycle needs an
``ARCH001`` edge and no rule of its own.

========  ==============================================================
ARCH001   import edge not allowed by the layer contract
ARCH003   third-party import (the tree is stdlib-only)
ARCH004   first-party package with no declared contract
========  ==============================================================
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from tests.static.index import Finding, Module

RULES: Dict[str, str] = {
    "ARCH001": "import edge violates the layer contract",
    "ARCH003": "third-party import; every layer depends on the stdlib only",
    "ARCH004": "first-party package missing a layer contract",
}

_EVERYTHING = frozenset({
    "errors", "dnswire", "netsim", "telemetry", "faults", "resolver",
    "cdn", "mobile", "mec", "core", "control", "measure", "runtime",
    "workload", "experiments", "profile", "cli",
})

#: layer -> layers it may import.  Top-level modules (``cli``,
#: ``errors``, ``__init__``) are layers of their own.
DEFAULT_CONTRACT: Dict[str, FrozenSet[str]] = {
    "errors": frozenset(),
    "dnswire": frozenset({"errors"}),
    "netsim": frozenset({"errors"}),
    "telemetry": frozenset({"errors"}),
    "faults": frozenset({"errors", "netsim"}),
    "resolver": frozenset({"errors", "dnswire", "netsim", "telemetry"}),
    "cdn": frozenset({"errors", "dnswire", "netsim", "resolver",
                      "telemetry"}),
    "mobile": frozenset({"errors", "netsim", "resolver", "telemetry"}),
    "mec": frozenset({"errors", "dnswire", "netsim", "resolver", "mobile",
                      "telemetry"}),
    "core": frozenset({"errors", "dnswire", "netsim", "telemetry",
                       "resolver", "cdn", "mobile", "mec"}),
    # The dynamic control plane assembles over built testbeds: it may
    # reach every simulation layer below it, but experiments/measure
    # drive it, never the reverse.
    "control": frozenset({"errors", "dnswire", "netsim", "telemetry",
                          "resolver", "cdn", "mobile", "mec", "core"}),
    "measure": frozenset({"errors", "dnswire", "netsim", "telemetry",
                          "resolver", "core"}),
    # Population-scale workload synthesis: mesoscale models calibrated
    # from full-fidelity testbeds, so it sits above core/measure; the
    # runtime dependency is derive_seed only (sub-seeded UE streams).
    "workload": frozenset({"errors", "dnswire", "netsim", "telemetry",
                           "resolver", "cdn", "mobile", "mec", "core",
                           "measure", "runtime"}),
    # The execution runtime is generic machinery: it may see telemetry
    # (per-trial capture) but never the experiments that plug into it --
    # workers receive pickled Experiment instances, not module imports.
    "runtime": frozenset({"errors", "telemetry"}),
    "experiments": _EVERYTHING - frozenset({"cli", "profile"}),
    # Analysis/profiling over recorded telemetry: a leaf consumer that
    # only the CLI imports.  It reads spans and drives experiments via
    # the runtime; no simulation layer may import it back.
    "profile": frozenset({"errors", "telemetry", "netsim", "runtime",
                          "experiments"}),
    "cli": _EVERYTHING,
    "__init__": _EVERYTHING,
}

STDLIB_MODULES = sys.stdlib_module_names

#: The first-party top package.
ROOT = "repro"


def _module_layer(module: str) -> Optional[str]:
    """The layer of dotted ``module``, or None if outside :data:`ROOT`.

    ``repro.cdn.geo`` -> ``cdn``; the top-level ``repro.cli`` -> ``cli``;
    ``repro`` itself -> ``__init__``.
    """
    if module == ROOT:
        return "__init__"
    prefix = ROOT + "."
    if not module.startswith(prefix):
        return None
    return module[len(prefix):].split(".")[0]


def _imports_of(module: Module) -> List[Tuple[str, int]]:
    """Every ``(imported dotted name, line)`` in ``module``, incl. lazy ones."""
    found: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against this module
                package = module.name.rsplit(".", node.level)[0] \
                    if module.name.count(".") >= node.level else ""
                base = f"{package}.{node.module}" if node.module else package
            else:
                base = node.module or ""
            if not base:
                continue
            found.append((base, node.lineno))
            # ``from repro import telemetry`` names subpackages, not
            # attributes; record each name so the edge is attributed to
            # the real layer.
            for alias in node.names:
                if alias.name != "*":
                    found.append((f"{base}.{alias.name}", node.lineno))
    return found


def analyze(modules: List[Module],
            contract: Dict[str, FrozenSet[str]] = DEFAULT_CONTRACT,
            ) -> List[Finding]:
    """Check every import edge against the layer contract.

    Tests pass their own ``contract`` for a synthetic tree.  Every layer
    is barred from third-party imports.
    """
    findings: List[Finding] = []
    for module in modules:
        layer = _module_layer(module.name)
        if layer is None:
            continue
        if layer not in contract:
            findings.append(Finding(
                module.file, 1, "ARCH004",
                f"package '{layer}' has no layer contract; declare its "
                f"allowed dependencies in tests/static/layering.py"))
            continue
        allowed = contract[layer]
        #: (line, target layer or third-party root) already reported for
        #: this module — a ``from repro.x import y`` records both
        #: ``repro.x`` and ``repro.x.y``, which resolve to the same edge.
        flagged: Set[Tuple[int, str]] = set()
        for imported, line in _imports_of(module):
            target = _module_layer(imported)
            if target == "__init__" and layer != "__init__":
                # ``from repro import x`` also records ``repro.x``; the
                # bare facade import carries no layering information.
                continue
            if target is None:
                top = imported.split(".")[0]
                if (top != ROOT and top not in STDLIB_MODULES
                        and (line, top) not in flagged):
                    flagged.add((line, top))
                    findings.append(Finding(
                        module.file, line, "ARCH003",
                        f"'{layer}' imports third-party '{imported}'; "
                        f"src/repro is stdlib-only"))
                continue
            if target == layer or target in allowed \
                    or (line, target) in flagged:
                continue
            flagged.add((line, target))
            findings.append(Finding(
                module.file, line, "ARCH001",
                f"layer '{layer}' may not import '{target}' "
                f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})"))
    return findings
