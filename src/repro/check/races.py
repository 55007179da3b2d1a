"""RACE rules: executor race detection.

``TrialExecutor`` promises serial and ``--jobs N`` runs are
byte-identical.  That holds only while worker-executed code touches no
state shared beyond the trial: a module global mutated inside a worker
is invisible to its siblings under ``fork`` but visible in the serial
backend — the contract's definition of a race.  These rules build the
call graph rooted at the worker entry points (``Experiment.run_trial``
implementations and the executor/capture machinery) and inspect every
reachable function:

========  ==============================================================
RACE001   write to module-level or class-level state from worker-
          reachable code (``global`` store, mutation of a module-scope
          binding, ``Class.attr =``)
RACE003   process-dependent value in worker-reachable code: ``id()``
          (address-space dependent), ``hash()`` of a non-int
          (``PYTHONHASHSEED`` differs under spawn), or iterating a
          set-typed local (hash order feeding merged results)
========  ==============================================================

The call graph deliberately over-approximates (unknown ``obj.method()``
receivers match every same-named method), so reachability errs toward
reporting; rule shapes are kept narrow to compensate.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.callgraph import (CallGraph, FunctionInfo, FunctionNode,
                                   ProgramIndex, module_level_bindings)
from repro.check.findings import Finding
from repro.check.sources import SourceTree

ANALYZER_NAME = "races"

RULES: Dict[str, str] = {
    "RACE001": "worker-reachable write to module/class-level state",
    "RACE003": "process-dependent value (id/hash/set order) in "
               "worker-reachable code",
}

#: Call-graph roots: what a worker process actually executes.
DEFAULT_ROOTS: Tuple[str, ...] = (
    "*.run_trial",
    "*._run_chunk",
    "repro.runtime.capture.*",
)

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "pop",
    "clear", "setdefault", "popitem", "discard", "sort", "reverse",
})


def _local_set_names(node: FunctionNode) -> Set[str]:
    """Names assigned from a set construct anywhere in ``node``."""
    names: Set[str] = set()
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"set", "frozenset"})
            if is_set:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _plain_local_stores(node: FunctionNode,
                        declared_global: Set[str]) -> Set[str]:
    """Bare names the function rebinds locally (shadowing module scope)."""
    stores: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id not in declared_global:
                    stores.add(target.id)
        elif isinstance(sub, ast.For) and isinstance(sub.target, ast.Name):
            stores.add(sub.target.id)
    return stores


class _FunctionRace:
    """All RACE rules over one reachable function."""

    def __init__(self, info: FunctionInfo, tree: SourceTree,
                 index: ProgramIndex) -> None:
        self.info = info
        self.tree = tree
        self.index = index
        self.module_bindings = module_level_bindings(info.module)
        self.module_classes = {
            name.rsplit(".", 1)[1] for name in index.classes
            if name.rsplit(".", 1)[0] == info.module.module}
        self.findings: List[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        finding = self.tree.finding(
            self.info.module, rule, getattr(node, "lineno", 1), message)
        if finding is not None:
            self.findings.append(finding)

    def check(self) -> None:
        node = self.info.node
        where = f"worker-reachable {self.info.name}()"
        declared_global: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
        local_stores = _plain_local_stores(node, declared_global)
        shared = ((self.module_bindings - local_stores)
                  | declared_global | self.module_classes)
        set_names = _local_set_names(node)

        for sub in ast.walk(node):
            self._check_stores(sub, declared_global, shared, where)
            self._check_process_dependence(sub, set_names, where)

    # -- RACE001 ------------------------------------------------------------

    def _check_stores(self, sub: ast.AST, declared_global: Set[str],
                      shared: Set[str], where: str) -> None:
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id in declared_global:
                    self._emit("RACE001", sub,
                               f"store to global '{target.id}' in {where}; "
                               f"worker writes to module state diverge "
                               f"between serial and sharded runs")
                elif isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in self.module_classes:
                    self._emit("RACE001", sub,
                               f"store to class attribute "
                               f"'{target.value.id}.{target.attr}' in "
                               f"{where}; class-level state is shared "
                               f"across trials")
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in shared:
                    self._emit("RACE001", sub,
                               f"item store into module-level "
                               f"'{target.value.id}' in {where}; "
                               f"module state is shared across trials")
        elif isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in _MUTATORS \
                and isinstance(sub.func.value, ast.Name) \
                and sub.func.value.id in shared:
            self._emit("RACE001", sub,
                       f"mutation of module-level "
                       f"'{sub.func.value.id}.{sub.func.attr}(...)' in "
                       f"{where}; module state is shared across trials")

    # -- RACE003 ------------------------------------------------------------

    def _check_process_dependence(self, sub: ast.AST, set_names: Set[str],
                                  where: str) -> None:
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "id" and len(sub.args) == 1:
                self._emit("RACE003", sub,
                           f"id(...) in {where} is an address-space "
                           f"value; it differs per process and taints "
                           f"anything merged from it")
            elif sub.func.id == "hash" and sub.args and not (
                    isinstance(sub.args[0], ast.Constant)
                    and isinstance(sub.args[0].value, int)):
                self._emit("RACE003", sub,
                           f"hash(...) in {where} depends on "
                           f"PYTHONHASHSEED under spawn-started workers; "
                           f"use hashlib for stable digests")
        iter_expr: Optional[ast.expr] = None
        if isinstance(sub, ast.For):
            iter_expr = sub.iter
        elif isinstance(sub, (ast.ListComp, ast.GeneratorExp)):
            # Set/dict comprehensions collapse order again; only
            # order-preserving materialisations leak it.
            iter_expr = sub.generators[0].iter
        if isinstance(iter_expr, ast.Name) and iter_expr.id in set_names:
            self._emit("RACE003", sub,
                       f"iteration over set-typed '{iter_expr.id}' in "
                       f"{where} visits hash order; results merged from "
                       f"it are order-dependent — iterate sorted(...)")


def analyze(tree: SourceTree,
            roots: Sequence[str] = DEFAULT_ROOTS) -> List[Finding]:
    """Run every RACE rule over code reachable from ``roots``."""
    index = ProgramIndex.build(tree)
    graph = CallGraph.build(index)
    findings: List[Finding] = []
    for info in graph.reachable_functions(roots):
        checker = _FunctionRace(info, tree, index)
        checker.check()
        findings.extend(checker.findings)
    return list(dict.fromkeys(findings))
