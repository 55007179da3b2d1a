"""HOT rules: the hot-path performance lint.

The benchmark's per-layer table (``bench/``: ``netsim.sim.run.self_s``,
``dnswire.*.self_s``) says the serial bottleneck is the per-event
engine and per-hop wire encode/decode (ROADMAP item 2).  The expensive
idioms are mechanical — re-encoding a message that never changes inside
a retry loop, allocating a closure per scheduled event, scanning a list
inside the dispatch loop — so they are lintable long before the perf
overhaul lands.  Findings double as the overhaul's worklist: the
committed ``HOT_INVENTORY.json`` is generated from this pass (run with
``--only HOT001,HOT002,HOT003 --include-suppressed``).

========  ==============================================================
HOT001    loop-invariant dnswire encode/decode inside a loop — the same
          bytes are recomputed every iteration (any module).  Calls to
          the memoized encode entry point (``cached_wire``) are cache
          hits, not re-encodes, and are never flagged
HOT002    per-event allocation on the scheduling path: a lambda/nested
          function built inside a loop, or a lambda handed to
          ``call_soon``/``call_at``/``call_after``/``add_done_callback``
          (hot modules only)
HOT003    O(n) list scan inside a loop: membership test against a
          list, ``.index``/``.remove``/``.count`` on a list-typed name
          (hot modules only)
========  ==============================================================

These rules flag *cost*, not *incorrectness* — a finding is either
fixed or explicitly deferred to the ROADMAP item 2 overhaul with an
inline ``# repro: allow[HOTnnn]`` rationale.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.check.callgraph import ImportResolver, stored_names
from repro.check.findings import Finding
from repro.check.sources import SourceModule, SourceTree

ANALYZER_NAME = "hotpath"

RULES: Dict[str, str] = {
    "HOT001": "loop-invariant dnswire encode/decode recomputed per "
              "iteration",
    "HOT002": "per-event allocation on the scheduling path",
    "HOT003": "O(n) list scan inside a loop",
}

#: Modules whose loops are treated as hot paths for HOT002/HOT003: the
#: event engine and wire layer (the measured bottleneck) plus the
#: layers that sit on the per-query critical path.
DEFAULT_HOT_PREFIXES: Tuple[str, ...] = (
    "repro.netsim", "repro.dnswire", "repro.resolver", "repro.mec",
    "repro.measure", "repro.workload",
)

#: Wire-layer entry points whose output depends only on their inputs.
_WIRE_METHODS = frozenset({"to_wire", "from_wire"})
_WIRE_FUNCTIONS = frozenset({"make_query", "make_response"})

#: dnswire entry points that memoize on message content
#: (:func:`repro.dnswire.message.cached_wire`).  A loop-invariant call
#: is a dict hit after the first iteration — exactly the idiom HOT001
#: pushes call sites toward — so it is recognised and *not* flagged.
_MEMOIZED_WIRE_FUNCTIONS = frozenset({"cached_wire"})

#: Per-event scheduling entry points; a lambda argument is one
#: allocation per scheduled event.
_SCHEDULE_METHODS = frozenset({
    "call_soon", "call_at", "call_after", "add_done_callback",
})

_LIST_SCANS = frozenset({"index", "remove", "count"})

#: Names conventionally bound to in-place wire cursors; a call reading
#: one is stateful even though the name is never rebound.
_CURSOR_NAMES = frozenset({"reader", "writer", "buf", "cursor"})

LoopNode = Union[ast.For, ast.AsyncFor, ast.While]


def _is_hot(module: SourceModule,
            prefixes: Sequence[str]) -> bool:
    return any(module.module == prefix
               or module.module.startswith(prefix + ".")
               for prefix in prefixes)


def _list_typed_names(root: ast.AST) -> Set[str]:
    """Names assigned from a list construct anywhere under ``root``."""
    names: Set[str] = set()
    for stmt in ast.walk(root):
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"list", "sorted"})
            if is_list:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


class _ModuleHot:
    """All HOT rules over one module."""

    def __init__(self, module: SourceModule, tree: SourceTree,
                 hot: bool) -> None:
        self.module = module
        self.tree = tree
        self.hot = hot
        self.resolver = ImportResolver(module.tree)
        self.findings: List[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        finding = self.tree.finding(
            self.module, rule, getattr(node, "lineno", 1), message,
            col=getattr(node, "col_offset", 0) + 1)
        if finding is not None:
            self.findings.append(finding)

    def check(self) -> None:
        list_names = _list_typed_names(self.module.tree)
        for node in ast.walk(self.module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                self._check_loop(node, list_names)
            elif self.hot and isinstance(node, ast.Call):
                self._check_schedule_alloc(node)

    # -- HOT002: lambda handed to the scheduler ------------------------------

    def _check_schedule_alloc(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_METHODS):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                self._emit("HOT002", node,
                           f"lambda allocated per scheduled event in "
                           f"{node.func.attr}(...); bind the callback "
                           f"once or pass args through the scheduler")

    # -- loop-body rules -----------------------------------------------------

    def _check_loop(self, loop: LoopNode,
                    module_list_names: Set[str]) -> None:
        stored = stored_names(loop.body)
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            # The loop target itself changes every iteration.
            for node in ast.walk(loop.target):
                if isinstance(node, ast.Name):
                    stored.add(node.id)
        for node in self._loop_body_nodes(loop):
            self._check_wire(node, stored)
            if not self.hot:
                continue
            if isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                kind = ("lambda" if isinstance(node, ast.Lambda)
                        else f"nested function '{node.name}'")
                self._emit("HOT002", node,
                           f"{kind} constructed inside a loop; one "
                           f"closure is allocated per iteration — hoist "
                           f"it or bind parameters explicitly")
            self._check_list_scan(node, module_list_names, loop)

    def _loop_body_nodes(self, loop: LoopNode) -> List[ast.AST]:
        """Every node in the loop body, except inner loops' bodies —
        those run their own :meth:`_check_loop` visit, so findings are
        attributed to the innermost loop's invariance set."""
        nodes: List[ast.AST] = []
        pending: List[ast.AST] = list(loop.body) + list(loop.orelse)
        while pending:
            node = pending.pop()
            nodes.append(node)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            pending.extend(ast.iter_child_nodes(node))
        return nodes

    def _check_wire(self, node: ast.AST, stored: Set[str]) -> None:
        """HOT001: wire encode/decode whose inputs never change."""
        if not isinstance(node, ast.Call):
            return
        label: Optional[str] = None
        reads: List[ast.expr] = []
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _WIRE_METHODS:
            label = node.func.attr
            reads = [node.func.value] + list(node.args)
        elif isinstance(node.func, ast.Name) \
                and node.func.id in (_WIRE_FUNCTIONS
                                     | _MEMOIZED_WIRE_FUNCTIONS):
            dotted = self.resolver.dotted(node.func)
            if dotted is None or not dotted.startswith("repro.dnswire"):
                return
            if node.func.id in _MEMOIZED_WIRE_FUNCTIONS:
                return
            label = node.func.id
            reads = list(node.args) + [kw.value for kw in node.keywords]
        if label is None:
            return
        for expr in reads:
            if not self._invariant(expr, stored):
                return
        hint = ("hoist it above the loop" if label == "from_wire"
                else "hoist it above the loop or encode via "
                     "repro.dnswire.cached_wire (memoized)")
        self._emit("HOT001", node,
                   f"loop-invariant {label}(...) re-encodes the same "
                   f"bytes every iteration; {hint}")

    def _invariant(self, expr: ast.expr, stored: Set[str]) -> bool:
        """Whether ``expr`` reads only names unassigned in the loop.

        Wire cursors (``reader``/``writer``) advance in place when
        encoded into/decoded from, so an unassigned cursor name is still
        not invariant.
        """
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and (
                    sub.id in stored or sub.id in _CURSOR_NAMES):
                return False
            if isinstance(sub, ast.Call):
                # A nested call may be impure; only attribute loads and
                # names are assumed stable.
                return False
        return True

    def _check_list_scan(self, node: ast.AST, module_list_names: Set[str],
                         loop: LoopNode) -> None:
        """HOT003: linear scans repeated every iteration."""
        local_list_names = module_list_names | _list_typed_names(loop)
        if isinstance(node, ast.Compare) \
                and any(isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops):
            target = node.comparators[-1]
            if isinstance(target, ast.List) or (
                    isinstance(target, ast.Name)
                    and target.id in local_list_names):
                what = (target.id if isinstance(target, ast.Name)
                        else "a list literal")
                self._emit("HOT003", node,
                           f"membership test against list '{what}' "
                           f"inside a loop is O(n) per iteration; use a "
                           f"set/dict keyed lookup")
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _LIST_SCANS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in local_list_names:
            self._emit("HOT003", node,
                       f"list.{node.func.attr}(...) on "
                       f"'{node.func.value.id}' inside a loop is O(n) "
                       f"per iteration; index it once or keep a "
                       f"position map")


def analyze(tree: SourceTree,
            hot_prefixes: Sequence[str] = DEFAULT_HOT_PREFIXES
            ) -> List[Finding]:
    """Run every HOT rule over every module in ``tree``."""
    findings: List[Finding] = []
    for module in tree:
        checker = _ModuleHot(module, tree, _is_hot(module, hot_prefixes))
        checker.check()
        findings.extend(checker.findings)
    return list(dict.fromkeys(findings))
