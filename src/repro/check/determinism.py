"""DET rules: the determinism linter.

Simulation code must derive every observable value from the simulator
clock and explicitly threaded ``random.Random`` streams (see
:mod:`repro.netsim.rand`).  These AST rules forbid the ways that
discipline silently erodes:

========  ==============================================================
DET001    wall-clock read (``time.time``, ``datetime.now``, …)
DET002    OS entropy source (``os.urandom``, ``uuid.uuid4``,
          ``secrets.*``, ``random.SystemRandom``)
DET003    module-level RNG draw (``random.random()``, ``random.choice``,
          ``numpy.random.*`` — shared hidden global state)
DET004    ``random.Random()`` constructed without a seed
DET005    hidden default RNG (``rng or random.Random(0)``, a
          ``random.Random(...)`` parameter default, or the equivalent
          conditional) — instances silently share one stream and bypass
          the named-stream discipline
DET006    iteration order of a ``set``/``frozenset`` escaping into
          behaviour (``for x in {…}``, ``list(set(…))``, …) — hash
          ordering differs across processes
========  ==============================================================

A violation is suppressed inline with ``# repro: allow[DETnnn]`` on the
flagged line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.check.findings import Finding
from repro.check.sources import SourceModule, SourceTree

ANALYZER_NAME = "determinism"

RULES: Dict[str, str] = {
    "DET001": "wall-clock read in simulation code",
    "DET002": "OS entropy source in simulation code",
    "DET003": "module-level RNG draw (hidden shared state)",
    "DET004": "unseeded random.Random()",
    "DET005": "hidden default RNG bypassing the named-stream discipline",
    "DET006": "set iteration order escaping into behaviour",
}

#: Fully-qualified callables that read the wall clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Fully-qualified callables that draw OS entropy.
_ENTROPY = {
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom", "ssl.RAND_bytes",
}

#: Prefixes whose every attribute draws OS entropy.
_ENTROPY_PREFIXES = ("secrets.",)

#: Prefixes whose calls draw from a hidden module-global RNG.  The two
#: exceptions are the stream *constructors*, which are fine when seeded.
_MODULE_RNG_PREFIXES = ("random.", "numpy.random.")
_MODULE_RNG_EXCEPTIONS = {"random.Random", "random.SystemRandom"}

_SET_BUILTINS = {"set", "frozenset"}
#: Builtins that materialise their argument in iteration order.
_ORDER_ESCAPES = {"list", "tuple", "iter", "enumerate"}


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> fully-qualified dotted name for every import."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class _Resolver:
    """Resolves expressions to dotted import paths, best effort."""

    def __init__(self, aliases: Dict[str, str]) -> None:
        self._aliases = aliases

    def dotted(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def _is_setish(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a literal/constructed set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _SET_BUILTINS)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule, tree: SourceTree) -> None:
        self._module = module
        self._tree = tree
        self._resolver = _Resolver(_collect_imports(module.tree))
        self.findings: List[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        finding = self._tree.finding(self._module, rule, line, message)
        if finding is not None:
            self.findings.append(finding)

    def _is_random_ctor(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and self._resolver.dotted(node.func) == "random.Random")

    # -- forbidden calls ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        path = self._resolver.dotted(node.func)
        if path is not None:
            if path in _WALL_CLOCK:
                self._emit("DET001", node,
                           f"wall-clock read {path}(); use the simulator "
                           f"clock (sim.now)")
            elif path in _ENTROPY or path.startswith(_ENTROPY_PREFIXES):
                self._emit("DET002", node,
                           f"entropy source {path}(); derive values from a "
                           f"named RandomStreams stream")
            elif (path.startswith(_MODULE_RNG_PREFIXES)
                  and path not in _MODULE_RNG_EXCEPTIONS):
                self._emit("DET003", node,
                           f"module-level RNG call {path}(); thread an "
                           f"explicit random.Random stream instead")
            elif path == "random.Random" and not node.args and not node.keywords:
                self._emit("DET004", node,
                           "random.Random() without a seed; use "
                           "RandomStreams.stream(name) or pass a seed")
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_ESCAPES
                and node.args and _is_setish(node.args[0])):
            self._emit("DET006", node,
                       f"{node.func.id}() materialises a set in hash order; "
                       f"wrap it in sorted(...)")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args and _is_setish(node.args[0])):
            self._emit("DET006", node,
                       "str.join over a set joins in hash order; wrap the "
                       "set in sorted(...)")
        self.generic_visit(node)

    # -- hidden default RNGs -------------------------------------------------

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if isinstance(node.op, ast.Or):
            for value in node.values[1:]:
                if self._is_random_ctor(value):
                    self._emit("DET005", node,
                               "`x or random.Random(...)` silently shares a "
                               "hidden default RNG; require an explicit "
                               "stream")
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        for branch in (node.body, node.orelse):
            if self._is_random_ctor(branch):
                self._emit("DET005", node,
                           "conditional fallback to random.Random(...) "
                           "shares a hidden default RNG; require an "
                           "explicit stream")
        self.generic_visit(node)

    def _check_defaults(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]:
            if self._is_random_ctor(default):
                self._emit("DET005", default,
                           "random.Random(...) as a parameter default is a "
                           "shared mutable RNG; require an explicit stream")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    # -- set iteration ------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_setish(node.iter):
            self._emit("DET006", node,
                       "iterating a set visits elements in hash order; "
                       "iterate sorted(...) instead")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            if _is_setish(generator.iter):
                self._emit("DET006", node,
                           "comprehension over a set runs in hash order; "
                           "iterate sorted(...) instead")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)


def analyze(tree: SourceTree) -> List[Finding]:
    """Run every DET rule over every module in ``tree``."""
    findings: List[Finding] = []
    for module in tree:
        visitor = _DeterminismVisitor(module, tree)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings
