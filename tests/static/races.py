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

The call graph indexes every module-level function and method under
``module.qualname`` and resolves a call three ways: a name of the module
or one it imports (through the import-alias map), ``self.method(...)`` to
the enclosing class, and ``obj.method(...)`` to every same-named method in
the tree.  That last one over-approximates on purpose (reporting too much
reachable code is safe, missing some is not), so the rule shapes stay
narrow to compensate.  A nested function or lambda is analysed under the
function around it: if the parent runs, the closure may.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, List, Optional, Set, Tuple, Union

from tests.static.index import Def, Finding, Module

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

RULES: Dict[str, str] = {
    "RACE001": "worker-reachable write to module/class-level state",
    "RACE003": "process-dependent value (id/hash/set order) in "
               "worker-reachable code",
}

#: Call-graph roots: what a worker process actually executes.
ROOTS: Tuple[str, ...] = (
    "*.run_trial",
    "*._run_chunk",
    "repro.runtime.capture.*",
)

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "pop",
    "clear", "setdefault", "popitem", "discard", "sort", "reverse",
})

#: Method names so common that matching every same-named method would
#: make everything reachable; a call by one of these resolves to nothing.
_IGNORED_METHOD_NAMES = _MUTATORS - {"reverse"} | {
    "get", "items", "keys", "values", "join", "split", "strip", "format",
    "encode", "decode", "copy", "startswith", "endswith", "replace",
    "lower", "upper", "count", "index", "read", "write", "close",
}


class _CallGraph:
    """Every function and method of a tree, and best-effort call edges."""

    def __init__(self, modules: List[Module]) -> None:
        #: ``module.qualname`` -> its def.
        self.functions: Dict[str, Def] = {}
        #: bare name -> every method bearing it.
        self.methods: Dict[str, List[str]] = {}
        for module in modules:
            for found in module.defs:
                if found.local or isinstance(found.node, ast.ClassDef):
                    continue
                full = f"{module.name}.{found.qualname}"
                self.functions[full] = found
                if found.owner is not None:
                    self.methods.setdefault(found.name, []).append(full)
        self.edges = {full: {target for node in ast.walk(found.node)
                             if isinstance(node, ast.Call)
                             for target in self._callees(node, found)}
                      for full, found in self.functions.items()}

    def _known(self, dotted: Optional[str]) -> List[str]:
        """``dotted`` as a function, or as a class's constructor."""
        if dotted is None:
            return []
        for candidate in (dotted, f"{dotted}.__init__"):
            if candidate in self.functions:
                return [candidate]
        return []

    def _callees(self, call: ast.Call, caller: Def) -> List[str]:
        func, module = call.func, caller.module
        if isinstance(func, ast.Name):
            return (self._known(f"{module.name}.{func.id}")
                    or self._known(module.dotted(func)))
        if not isinstance(func, ast.Attribute):
            return []
        known = self._known(module.dotted(func))
        if known:
            return known
        if isinstance(func.value, ast.Name) and func.value.id == "self" \
                and caller.owner is not None:
            method = f"{module.name}.{caller.owner}.{func.attr}"
            if method in self.functions:
                return [method]
        if func.attr in _IGNORED_METHOD_NAMES:
            return []
        return self.methods.get(func.attr, [])

    def reachable(self) -> List[Def]:
        """Functions reachable from those whose ``module.qualname``
        matches an ``fnmatch`` pattern of :data:`ROOTS`."""
        frontier = [full for full in self.functions
                    if any(fnmatch.fnmatchcase(full, pattern)
                           for pattern in ROOTS)]
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current not in seen:
                seen.add(current)
                frontier.extend(self.edges[current])
        return [self.functions[full] for full in sorted(seen)]


def _module_level_bindings(module: Module) -> Set[str]:
    """Names bound by assignment at module scope (shared process state)."""
    bound: Set[str] = set()
    for stmt in module.tree.body:
        targets: Tuple[ast.expr, ...] = ()
        if isinstance(stmt, ast.Assign):
            targets = tuple(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.target,)
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    bound.add(node.id)
    return bound


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

    def __init__(self, found: Def) -> None:
        self.found = found
        self.module_bindings = _module_level_bindings(found.module)
        self.module_classes = {
            each.name for each in found.module.defs
            if each.owner is None and isinstance(each.node, ast.ClassDef)}
        self.findings: List[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            self.found.module.file, getattr(node, "lineno", 1), rule,
            message))

    def check(self) -> None:
        node = self.found.node
        assert not isinstance(node, ast.ClassDef)
        where = f"worker-reachable {self.found.name}()"
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


def analyze(modules: List[Module]) -> List[Finding]:
    """Run every RACE rule over code reachable from :data:`ROOTS`."""
    findings: List[Finding] = []
    for found in _CallGraph(modules).reachable():
        checker = _FunctionRace(found)
        checker.check()
        findings.extend(checker.findings)
    return list(dict.fromkeys(findings))
