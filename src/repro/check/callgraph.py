"""Whole-program indexing and call-graph construction.

The line-local DET/ARCH rules never needed to know who calls whom; the
inter-procedural RACE pass (:mod:`repro.check.races`) does.  This module
builds, from a parsed :class:`~repro.check.sources.SourceTree`:

* a :class:`ProgramIndex` — every module-level function and class method
  under a stable qualified name (``repro.runtime.executor.TrialExecutor.
  run``), with per-module import-alias maps for resolving dotted calls;
* a :class:`CallGraph` — best-effort call edges between indexed
  functions, resolved three ways: direct calls to module-level names
  (through import aliases), ``self.method(...)`` to the enclosing class,
  and ``obj.method(...)`` by method name across the tree (a deliberate
  over-approximation: for race detection, reporting too much reachable
  code is safe, missing reachable code is not).

Nested functions and lambdas are folded into their innermost indexed
enclosing function — if the parent is reachable, the closure may run, so
its body is analysed under the parent's name.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.check.sources import SourceModule, SourceTree

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Call receivers treated as method calls to *any* same-named method in
#: the tree would explode on these ubiquitous names; they never resolve.
_IGNORED_METHOD_NAMES = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "pop",
    "clear", "get", "items", "keys", "values", "setdefault", "join",
    "split", "strip", "format", "encode", "decode", "sort", "copy",
    "startswith", "endswith", "replace", "lower", "upper", "count",
    "index", "read", "write", "close", "popitem", "discard",
})


class ImportResolver:
    """Resolves expressions to dotted import paths, best effort.

    Mirrors the determinism linter's resolver but also exposes the raw
    alias map.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    full = (alias.name if alias.asname
                            else alias.name.split(".")[0])
                    self.aliases[local] = full
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and not node.level):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def dotted(self, node: ast.AST) -> Optional[str]:
        """The fully-qualified dotted path of ``node``, if resolvable."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


class FunctionInfo:
    """One indexed function or method."""

    __slots__ = ("qualname", "name", "cls", "module", "node")

    def __init__(self, qualname: str, name: str, cls: Optional[str],
                 module: SourceModule, node: FunctionNode) -> None:
        #: ``module.Class.method`` or ``module.function``.
        self.qualname = qualname
        self.name = name
        #: Enclosing class name, if a method.
        self.cls = cls
        self.module = module
        self.node = node

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname})"


class ProgramIndex:
    """Every indexed function, class, and module-alias map in a tree."""

    def __init__(self) -> None:
        #: qualname -> function.
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare method/function name -> every indexed function bearing it.
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: dotted class name (``module.Class``) -> method name -> qualname.
        self.classes: Dict[str, Dict[str, str]] = {}
        #: module dotted name -> its import resolver.
        self.resolvers: Dict[str, ImportResolver] = {}

    @classmethod
    def build(cls, tree: SourceTree) -> "ProgramIndex":
        """Index every module-level function and class method."""
        index = cls()
        for module in tree:
            resolver = ImportResolver(module.tree)
            index.resolvers[module.module] = resolver
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    index._add(module, node, cls_name=None)
                elif isinstance(node, ast.ClassDef):
                    class_key = f"{module.module}.{node.name}"
                    index.classes.setdefault(class_key, {})
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            index._add(module, item, cls_name=node.name)
        return index

    def _add(self, module: SourceModule, node: FunctionNode,
             cls_name: Optional[str]) -> None:
        parts = [module.module] if module.module else []
        if cls_name is not None:
            parts.append(cls_name)
        parts.append(node.name)
        qualname = ".".join(parts)
        info = FunctionInfo(qualname, node.name, cls_name, module, node)
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(info)
        if cls_name is not None and module.module:
            self.classes.setdefault(f"{module.module}.{cls_name}",
                                    {})[node.name] = qualname


def _callee_targets(call: ast.Call, info: FunctionInfo,
                    index: ProgramIndex) -> List[str]:
    """Qualnames ``call`` may invoke, best effort."""
    func = call.func
    module_name = info.module.module
    resolver = index.resolvers.get(module_name)
    targets: List[str] = []
    if isinstance(func, ast.Name):
        # A module-level function or class of this module...
        local = f"{module_name}.{func.id}" if module_name else func.id
        if local in index.functions:
            targets.append(local)
        elif f"{local}.__init__" in index.functions:
            targets.append(f"{local}.__init__")
        elif resolver is not None:
            # ...or an imported one.
            dotted = resolver.dotted(func)
            if dotted is not None:
                if dotted in index.functions:
                    targets.append(dotted)
                elif f"{dotted}.__init__" in index.functions:
                    targets.append(f"{dotted}.__init__")
        return targets
    if isinstance(func, ast.Attribute):
        if resolver is not None:
            dotted = resolver.dotted(func)
            if dotted is not None and dotted in index.functions:
                return [dotted]
            if dotted is not None and f"{dotted}.__init__" in index.functions:
                return [f"{dotted}.__init__"]
        if isinstance(func.value, ast.Name) and func.value.id == "self" \
                and info.cls is not None:
            methods = index.classes.get(f"{info.module.module}.{info.cls}", {})
            if func.attr in methods:
                return [methods[func.attr]]
        # Unknown receiver: every same-named method might be the callee.
        if func.attr not in _IGNORED_METHOD_NAMES:
            return [candidate.qualname
                    for candidate in index.by_name.get(func.attr, [])
                    if candidate.cls is not None]
    return targets


class CallGraph:
    """Best-effort call edges between indexed functions."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        #: caller qualname -> callee qualnames.
        self.edges: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, index: ProgramIndex) -> "CallGraph":
        """Extract edges from every indexed function body.

        Calls inside nested functions/lambdas are attributed to the
        enclosing indexed function (closures run under their parent).
        """
        graph = cls(index)
        for qualname, info in index.functions.items():
            callees = graph.edges.setdefault(qualname, set())
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    callees.update(_callee_targets(node, info, index))
        return graph

    def reachable(self, root_patterns: Sequence[str]) -> Set[str]:
        """Qualnames reachable from functions matching ``root_patterns``.

        Patterns are ``fnmatch``-style over qualified names, e.g.
        ``*.run_trial`` or ``repro.runtime.capture.*``.
        """
        roots = [qualname for qualname in self.index.functions
                 if any(fnmatch.fnmatchcase(qualname, pattern)
                        for pattern in root_patterns)]
        seen: Set[str] = set()
        frontier: List[str] = list(roots)
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, ()))
        return seen

    def reachable_functions(self, root_patterns: Sequence[str]
                            ) -> List[FunctionInfo]:
        """Like :meth:`reachable`, resolved to infos in a stable order."""
        names = self.reachable(root_patterns)
        return [self.index.functions[name] for name in sorted(names)]


def module_level_bindings(module: SourceModule) -> Set[str]:
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
