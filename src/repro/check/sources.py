"""Source-tree loading shared by all analyzers.

Walks the target paths once and parses every Python file into a
:class:`SourceModule` (path, dotted module name, AST, source lines, and
inline ``# repro: allow[RULE]`` suppressions).  Analyzers operate on the
resulting :class:`SourceTree` so a ``repro check`` run parses each file
exactly once.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.check.findings import Finding

#: Inline suppression: ``# repro: allow[DET004]`` or ``allow[DET004,ARCH001]``
#: on the flagged line, or on a comment-only line directly above it (for
#: justifications too long to share the line with code).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")

#: Rule id for files the analyzers cannot parse at all.
RULE_PARSE_ERROR = "GEN001"


class SourceModule:
    """One parsed Python file."""

    def __init__(self, path: str, rel: str, module: str, text: str,
                 tree: ast.Module) -> None:
        self.path = path
        #: Path relative to the invocation root, POSIX-style (stable in
        #: findings across machines).
        self.rel = rel.replace(os.sep, "/")
        #: Dotted module name, e.g. ``repro.cdn.geo`` (best effort).
        self.module = module
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self._allowed: Dict[int, Set[str]] = {}
        for number, line in enumerate(self.lines, 1):
            match = _ALLOW_RE.search(line)
            if match:
                rules = {token.strip() for token in match.group(1).split(",")
                         if token.strip()}
                # A comment-only allow covers the next line of code.
                target = (number + 1 if line.strip().startswith("#")
                          else number)
                self._allowed.setdefault(target, set()).update(rules)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is inline-allowed on ``line``."""
        return rule in self._allowed.get(line, ())

    def __repr__(self) -> str:
        return f"SourceModule({self.module or self.rel})"


class SourceTree:
    """Every Python module under the target paths."""

    def __init__(self) -> None:
        self.modules: List[SourceModule] = []
        #: Files that failed to parse (reported once, as GEN001).
        self.errors: List[Finding] = []
        #: When true, inline ``# repro: allow[...]`` comments are ignored
        #: and suppressed findings are reported too (inventory runs).
        self.include_suppressed = False

    def finding(self, module: SourceModule, rule: str, line: int,
                message: str) -> Optional[Finding]:
        """A :class:`Finding` unless inline-suppressed at its location."""
        if not self.include_suppressed and module.is_suppressed(line, rule):
            return None
        return Finding(rule, module.rel, line, message)

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


def module_name_for(path: str) -> str:
    """The dotted module name of ``path``, found via ``__init__.py`` walk.

    Climbs parent directories for as long as they are packages; a file
    outside any package gets its bare stem (fixture trees in tests rely
    on this resolving e.g. ``fakerepo/repro/netsim/engine.py`` to
    ``repro.netsim.engine``).
    """
    directory, filename = os.path.split(os.path.abspath(path))
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts)


def _iter_files(root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(name for name in dirnames
                             if name != "__pycache__"
                             and not name.startswith("."))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def load_tree(paths: List[str]) -> SourceTree:
    """Parse every ``*.py`` file under ``paths`` once.

    Findings carry paths relative to the current directory.
    """
    base = os.path.abspath(os.curdir)
    tree = SourceTree()
    seen: Set[str] = set()
    for target in paths:
        target = os.path.abspath(target)
        files = [target] if os.path.isfile(target) else _iter_files(target)
        for path in files:
            if path in seen:
                continue
            seen.add(path)
            rel = os.path.relpath(path, base)
            if rel.startswith(".."):
                rel = path  # outside the root: keep it absolute but stable
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            try:
                parsed = ast.parse(text, filename=path)
            except SyntaxError as exc:
                tree.errors.append(Finding(
                    RULE_PARSE_ERROR, rel.replace(os.sep, "/"),
                    exc.lineno or 1, f"syntax error: {exc.msg}"))
                continue
            tree.modules.append(SourceModule(
                path, rel, module_name_for(path), text, parsed))
    return tree
