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
  may never import the scheduler or any simulation layer — the
  zero-perturbation guarantee (replay digests identical with telemetry
  on or off) survives only while telemetry cannot reach sim state;
* everything else layers strictly upward, ``cli`` on top.

========  ==============================================================
ARCH001   import edge not allowed by the layer contract
ARCH002   ``telemetry`` importing a simulation layer (perturbation risk)
ARCH003   third-party import (the tree is stdlib-only)
ARCH004   first-party package with no declared contract
ARCH005   dependency cycle between packages
========  ==============================================================
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.sources import SourceModule, SourceTree

ANALYZER_NAME = "layering"

RULES: Dict[str, str] = {
    "ARCH001": "import edge violates the layer contract",
    "ARCH002": "telemetry imports a simulation layer (zero-perturbation breach)",
    "ARCH003": "third-party import; every layer depends on the stdlib only",
    "ARCH004": "first-party package missing a layer contract",
    "ARCH005": "dependency cycle between packages",
}

#: The layers telemetry must never import: everything that can reach the
#: scheduler or mutate simulation state.
SIM_LAYERS = frozenset({
    "netsim", "faults", "resolver", "cdn", "mobile", "mec", "core",
    "control", "measure", "runtime", "workload", "experiments",
    "profile", "cli",
})

_EVERYTHING = frozenset({
    "errors", "dnswire", "netsim", "telemetry", "faults", "resolver",
    "cdn", "mobile", "mec", "core", "control", "measure", "runtime",
    "workload", "experiments", "profile", "check", "cli",
})

#: layer -> layers it may import.  Top-level modules (``cli``,
#: ``errors``, ``__init__``, ``__main__``) are layers of their own.
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
    "experiments": _EVERYTHING - frozenset({"cli", "check", "profile"}),
    # Analysis/profiling over recorded telemetry: a leaf consumer that
    # only the CLI imports.  It reads spans and drives experiments via
    # the runtime; no simulation layer may import it back.
    "profile": frozenset({"errors", "telemetry", "netsim", "runtime",
                          "experiments"}),
    # The analyzer reads source text only; it imports nothing it checks.
    "check": frozenset(),
    "cli": _EVERYTHING,
    "__init__": _EVERYTHING,
    "__main__": _EVERYTHING,
}

#: Stdlib fallback for interpreters without ``sys.stdlib_module_names``
#: (< 3.10): everything ``src/repro`` imports today (a test holds it to
#: that), so ARCH003 reads the same on 3.9.
_STDLIB_FALLBACK = frozenset({
    "__future__", "abc", "argparse", "array", "ast", "base64", "binascii",
    "bisect", "cProfile", "collections", "concurrent", "contextlib", "copy",
    "dataclasses", "enum", "fnmatch", "fractions", "functools", "hashlib",
    "heapq", "inspect", "io", "ipaddress", "itertools", "json", "math",
    "multiprocessing", "operator", "os", "pstats", "random", "re", "string",
    "struct", "sys", "textwrap", "time", "traceback", "types", "typing",
    "warnings",
})

STDLIB_MODULES = frozenset(
    getattr(sys, "stdlib_module_names", _STDLIB_FALLBACK))


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


def _imports_of(module: SourceModule) -> List[Tuple[str, int]]:
    """Every ``(imported dotted name, line)`` in ``module``, incl. lazy ones."""
    found: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against this module
                package = module.module.rsplit(".", node.level)[0] \
                    if module.module.count(".") >= node.level else ""
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


def analyze(tree: SourceTree,
            contract: Optional[Dict[str, FrozenSet[str]]] = None,
            ) -> List[Finding]:
    """Check every import edge in ``tree`` against the layer contract.

    ``contract`` overrides :data:`DEFAULT_CONTRACT` (tests exercise
    violations with synthetic contracts).  Every layer is barred from
    third-party imports.
    """
    contract = DEFAULT_CONTRACT if contract is None else contract
    findings: List[Finding] = []
    #: importer layer -> {imported layer}: the observed package graph.
    graph: Dict[str, Set[str]] = {}
    #: (importer, imported) -> first observed (module, line) for cycles.
    edge_where: Dict[Tuple[str, str], Tuple[SourceModule, int]] = {}

    for module in tree:
        layer = _module_layer(module.module)
        if layer is None:
            continue
        if layer not in contract:
            finding = tree.finding(
                module, "ARCH004", 1,
                f"package '{layer}' has no layer contract; declare its "
                f"allowed dependencies in repro.check.layering")
            if finding is not None:
                findings.append(finding)
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
                    finding = tree.finding(
                        module, "ARCH003", line,
                        f"'{layer}' imports third-party '{imported}'; "
                        f"src/repro is stdlib-only")
                    if finding is not None:
                        findings.append(finding)
                continue
            if target != layer:
                graph.setdefault(layer, set()).add(target)
                edge_where.setdefault((layer, target), (module, line))
            if target == layer or target in allowed:
                continue
            if (line, target) in flagged:
                continue
            flagged.add((line, target))
            if layer == "telemetry" and target in SIM_LAYERS:
                rule, reason = "ARCH002", (
                    f"telemetry must stay leaf-observed but imports "
                    f"'{imported}'; importing sim layers voids the "
                    f"zero-perturbation guarantee")
            else:
                rule, reason = "ARCH001", (
                    f"layer '{layer}' may not import '{target}' "
                    f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})")
            finding = tree.finding(module, rule, line, reason)
            if finding is not None:
                findings.append(finding)

    findings.extend(_find_cycles(graph, edge_where, tree))
    return findings


def _find_cycles(graph: Dict[str, Set[str]],
                 edge_where: Dict[Tuple[str, str], Tuple[SourceModule, int]],
                 tree: SourceTree) -> List[Finding]:
    """ARCH005 findings, one per distinct package-level cycle."""
    findings: List[Finding] = []
    visiting: Set[str] = set()
    done: Set[str] = set()
    stack: List[str] = []
    reported: Set[FrozenSet[str]] = set()

    def visit(node: str) -> None:
        visiting.add(node)
        stack.append(node)
        for target in sorted(graph.get(node, ())):
            if target in visiting:
                cycle = stack[stack.index(target):] + [target]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    module, line = edge_where[(node, target)]
                    finding = tree.finding(
                        module, "ARCH005", line,
                        "package cycle: " + " -> ".join(cycle))
                    if finding is not None:
                        findings.append(finding)
            elif target not in done:
                visit(target)
        stack.pop()
        visiting.discard(node)
        done.add(node)

    for node in sorted(graph):
        if node not in done:
            visit(node)
    return findings
