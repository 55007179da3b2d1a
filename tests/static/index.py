"""The one module index every static check of the tree reads.

Three tools read ``src/repro`` as syntax, never importing it: the
analyzer (the DET / ARCH / RACE / HOT rules of this package), the surface
census (``tests/test_surface_census.py``) and the line census
(``scripts/line_census.py``).  They share what this module holds:

* one loader, :func:`load`, which parses each file once per process into
  a :class:`Module` (file, dotted module name, AST and lines);
* one def walker, :attr:`Module.defs`, which yields every ``def`` and
  ``class`` as a :class:`Def` (qualname, node, owner, first and last
  line, parameters);
* one import-alias map, :attr:`Module.aliases`, with
  :meth:`Module.dotted` resolving an expression through it.

A file that does not parse raises ``SyntaxError`` here, so every check
reading it fails on it.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

#: The repository root: module paths are recorded relative to it.
ROOT = Path(__file__).resolve().parents[2]

DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


class Finding(NamedTuple):
    """One rule violation; tuple order sorts by path, line, then rule."""

    path: str
    line: int
    rule: str
    message: str


class Def(NamedTuple):
    """One ``def`` or ``class``, at any depth."""

    module: "Module"
    #: Dotted through classes and functions alike (``outer.inner``).
    qualname: str
    node: DefNode
    #: The qualname of the enclosing def or class, if any.
    owner: Optional[str]
    #: The first line (its first decorator's) and the last.
    first: int
    last: int
    #: Whether a function body encloses it (a closure, or a local class).
    local: bool

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> Tuple[str, str]:
        """The def's identity across the tree: (file, qualname)."""
        return (self.module.file, self.qualname)

    @property
    def where(self) -> str:
        return f"{self.module.file}:{self.node.lineno} {self.qualname}"

    @property
    def parameters(self) -> Set[str]:
        """A function's parameters, or a class's annotated fields."""
        node = self.node
        if isinstance(node, ast.ClassDef):
            return {item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)}
        args = node.args
        return {arg.arg for arg in
                args.posonlyargs + args.args + args.kwonlyargs}


class Module:
    """One parsed Python file."""

    def __init__(self, path: Path) -> None:
        #: POSIX path relative to the repository root, or absolute
        #: outside it (a test's temporary tree).
        self.file = (path.relative_to(ROOT).as_posix()
                     if ROOT in path.parents else path.as_posix())
        self.name = _module_name(path)
        text = path.read_text("utf-8")
        self.lines = text.splitlines()
        self.tree = ast.parse(text, str(path))

    @functools.cached_property
    def defs(self) -> List[Def]:
        """Every def and class, outermost first, in source order."""
        found: List[Def] = []

        def visit(node: ast.AST, owner: Optional[str], local: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualname = f"{owner}.{child.name}" if owner else child.name
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    found.append(Def(self, qualname, child, owner, first,
                                     child.end_lineno or child.lineno, local))
                    visit(child, qualname,
                          local or not isinstance(child, ast.ClassDef))
                else:
                    visit(child, owner, local)

        visit(self.tree, None, False)
        return found

    def enclosing(self, line: int) -> str:
        """The qualname of the innermost def around ``line`` ('' if none)."""
        inside = [(found.first, found.qualname) for found in self.defs
                  if found.first <= line <= found.last]
        return max(inside)[1] if inside else ""

    @functools.cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> the dotted name an absolute import binds to it."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    aliases[alias.asname or top] = (
                        alias.name if alias.asname else top)
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and not node.level):
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
        return aliases

    def dotted(self, node: ast.AST) -> Optional[str]:
        """The dotted import path ``node`` spells, if it starts at one."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def _module_name(path: Path) -> str:
    """The dotted name of ``path``: its stem under every enclosing package
    (so ``<tmp>/repro/netsim/engine.py`` is ``repro.netsim.engine``)."""
    parts = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        directory = directory.parent
    return ".".join(parts)


_LOADED: Dict[Path, Module] = {}


def load(path: Path) -> Module:
    """The parsed file at ``path``, parsed on first use only."""
    path = path.resolve()
    if path not in _LOADED:
        _LOADED[path] = Module(path)
    return _LOADED[path]


def modules(*tops: Path) -> List[Module]:
    """Every ``*.py`` file under ``tops`` (files or directories)."""
    return [load(path) for top in tops
            for path in ([top] if top.is_file()
                         else sorted(top.rglob("*.py")))]
