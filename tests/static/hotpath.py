"""HOT rule: the hot-path allocation lint.

The serial bottleneck is the per-event engine, and the one expensive
idiom there that is mechanical enough to lint is allocating a closure
per scheduled event: PR 8 found six of them in ``netsim`` and fixed all
six by passing arguments through the scheduler.  ``HOT002`` keeps them
from regrowing.  What encode/decode and queue operations *cost* is
measured, not pattern-matched: the benchmark's per-layer rows
(``bench/``: ``dnswire.*.self_s``, ``netsim.sim.schedule.self_s``).

========  ==============================================================
HOT002    per-event allocation on the scheduling path: a lambda/nested
          function built inside a loop, or a lambda handed to
          ``call_soon``/``call_at``/``call_after``/``add_done_callback``
          (hot modules only)
========  ==============================================================

The rule flags *cost*, not *incorrectness*: a finding is fixed, or kept
with a row of the exemption table (``CLASSES`` in
``scripts/line_census.py``) that says why.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple, Union

from tests.static.index import Finding, Module

RULES: Dict[str, str] = {
    "HOT002": "per-event allocation on the scheduling path",
}

#: Modules whose loops are treated as hot paths: the event engine and
#: wire layer (the measured bottleneck) plus the layers that sit on the
#: per-query critical path.
DEFAULT_HOT_PREFIXES: Tuple[str, ...] = (
    "repro.netsim", "repro.dnswire", "repro.resolver", "repro.mec",
    "repro.measure", "repro.workload",
)

#: Per-event scheduling entry points; a lambda argument is one
#: allocation per scheduled event.
_SCHEDULE_METHODS = frozenset({
    "call_soon", "call_at", "call_after", "add_done_callback",
})

LoopNode = Union[ast.For, ast.AsyncFor, ast.While]


def _is_hot(module: Module, prefixes: Sequence[str]) -> bool:
    return any(module.name == prefix or module.name.startswith(prefix + ".")
               for prefix in prefixes)


class _ModuleHot:
    """HOT002 over one hot module."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.findings: List[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            self.module.file, getattr(node, "lineno", 1), rule, message))

    def check(self) -> None:
        for node in ast.walk(self.module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                self._check_loop(node)
            elif isinstance(node, ast.Call):
                self._check_schedule_alloc(node)

    def _check_schedule_alloc(self, node: ast.Call) -> None:
        """A lambda handed to the scheduler."""
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_METHODS):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                self._emit("HOT002", node,
                           f"lambda allocated per scheduled event in "
                           f"{node.func.attr}(...); bind the callback "
                           f"once or pass args through the scheduler")

    def _check_loop(self, loop: LoopNode) -> None:
        """A closure built once per iteration."""
        for node in self._loop_body_nodes(loop):
            if isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                kind = ("lambda" if isinstance(node, ast.Lambda)
                        else f"nested function '{node.name}'")
                self._emit("HOT002", node,
                           f"{kind} constructed inside a loop; one "
                           f"closure is allocated per iteration — hoist "
                           f"it or bind parameters explicitly")

    def _loop_body_nodes(self, loop: LoopNode) -> List[ast.AST]:
        """Every node in the loop body, except inner loops' bodies —
        those run their own :meth:`_check_loop` visit."""
        nodes: List[ast.AST] = []
        pending: List[ast.AST] = list(loop.body) + list(loop.orelse)
        while pending:
            node = pending.pop()
            nodes.append(node)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            pending.extend(ast.iter_child_nodes(node))
        return nodes


def analyze(modules: List[Module],
            hot_prefixes: Sequence[str] = DEFAULT_HOT_PREFIXES
            ) -> List[Finding]:
    """Run HOT002 over every hot module."""
    findings: List[Finding] = []
    for module in modules:
        if not _is_hot(module, hot_prefixes):
            continue
        checker = _ModuleHot(module)
        checker.check()
        findings.extend(checker.findings)
    return list(dict.fromkeys(findings))
