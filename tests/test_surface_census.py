"""The surface is what something runs (ROADMAP item 7).

Four counts over the tree, each held at zero, stdlib ``ast`` only:

* **unreferenced names** — a ``def`` / ``class`` in ``src/repro`` that no
  code under ``src bench examples scripts`` mentions.  ``tests/`` is not a
  root: a helper only tests call is a test oracle and lives in ``tests/``.
  Imports, ``__all__`` strings and mentions from a name's own body do not
  keep it alive, and neither do mentions from a name that is itself dead,
  so the count is a fixed point.  In ``bench/``, which names its shim
  targets as ``"module:qualname"`` and identifier strings, those count.
* **never-passed parameters** — a defaulted parameter, or defaulted
  ``NamedTuple`` / dataclass field, that no call site sets.  Here, and only
  here, ``tests/`` is a caller: a test that lowers a bound
  (``DnsCache(max_entries=2)``) or feeds ``main(argv)`` is what the
  parameter is for.  A ``**mapping`` call site sets the parameters that
  some dict literal spells as a string key; a function's own ``**kwargs``
  passed on sets nothing.
* **never-read parameters** — accepted, then ignored by a body that is more
  than a stub; a leading underscore says "ignored on purpose".
* **unused imports** — the one pyflakes rule a deletion breaks unseen
  (``ruff`` is not installable here); ``src`` and ``tests``.

Matching is by bare name, so a common name (``get``, ``run``) is kept alive
by any namesake, and a value handed from one signature to the next keeps
both alive: the census under-counts, it never over-counts.  Exempt by
rule, not by list: dunders and ``visit_*`` / ``_apply_*`` / ``_cmd_*``
dispatch targets (reached by the interpreter or a name-built ``getattr``);
and, for the two parameter counts, a method that overrides — or is
overridden by, test doubles included — a namesake up or down its class
tree (``handle_query(client)``, ``run_trial(spec)``, ``from_wire(rdlength)``:
the signature belongs to the protocol).  What else stays unreferenced is
in ``ALLOW`` with its reason.
"""

import ast
import functools
import re
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
RUNS = ("src", "bench", "examples", "scripts")
DISPATCH = ("visit_", "_apply_", "_cmd_")
SHIM_TARGET = re.compile(r"^repro[\w.]*:([\w.]+)$")

#: Unreferenced names that stay, ``file::qualname`` -> the DESIGN.md row or
#: test that is the reason.  At most 15; a new entry needs a reason of the
#: same kind, not a wish.
ALLOW: Dict[str, str] = {
    "src/repro/cdn/hierarchy.py::TieredCdn":
        "DESIGN.md §3 CDN row (edge/mid/far tiers with miss referral); "
        "tests/cdn/test_router_hierarchy.py::TestTieredCdn",
    "src/repro/core/resolution.py::EdgeAwareClient":
        "DESIGN.md §3 core row (tier-aware client following next-tier "
        "referrals); tests/integration/test_metro.py",
    "src/repro/core/fallback.py::FallbackClient.race":
        "DESIGN.md §5 fallback-strategy ablation; reached by "
        "getattr(client, strategy) in tests/integration/test_ablations.py",
    "src/repro/core/meccdn.py::MecCdnSite.publish_domain":
        "paper §5, one cluster IP for many CDN customers; "
        "tests/integration/test_multi_customer.py",
    "src/repro/mec/ipreuse.py::PublicIpPlan":
        "DESIGN.md §5 public-IP-reuse ablation; "
        "tests/mec/test_coredns.py::TestIpReuse",
    "src/repro/mec/plugins_extra.py::RewritePlugin":
        "DESIGN.md §3 MEC row (rewrite plugin); "
        "tests/mec/test_plugins_extra.py",
    "src/repro/mec/plugins_extra.py::LoadBalancePlugin":
        "DESIGN.md §3 MEC row (loadbalance plugin); "
        "tests/mec/test_plugins_extra.py",
    "src/repro/cdn/allocation.py::ConsistentAllocator.set_members":
        "Huang et al. (PAPERS.md): a membership change moves only the keys "
        "whose walk changed; tests/cdn/test_allocation.py::"
        "TestMembershipChange; re-enters the router with the client "
        "policies (ROADMAP item 4)",
}

Scope = Optional[Tuple[str, str]]


class Def(NamedTuple):
    """One module- or class-level ``def`` / ``class`` of ``src/repro``."""

    file: str
    qualname: str
    node: ast.AST
    owner: Optional[str]

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.file, self.qualname)

    @property
    def where(self) -> str:
        return f"{self.file}:{self.node.lineno} {self.qualname}"


def parse(*tops: str) -> Dict[str, ast.Module]:
    return {path.relative_to(ROOT).as_posix():
            ast.parse(path.read_text("utf-8"), str(path))
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


TREES = parse(*RUNS)
SRC = {file: tree for file, tree in TREES.items() if file.startswith("src/")}
TESTS = parse("tests")


def definitions(file: str, body: List[ast.stmt],
                owner: Optional[str] = None) -> Iterator[Def]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{owner}.{node.name}" if owner else node.name
            yield Def(file, qualname, node, owner)
            if isinstance(node, ast.ClassDef):
                yield from definitions(file, node.body, qualname)


DEFS = [found for file, tree in SRC.items()
        for found in definitions(file, tree.body)]
#: Every class by bare name, test doubles included: a hook a test subclass
#: overrides is a protocol, and a test subclass's call sites are its base's.
CLASSES: Dict[str, List[ast.ClassDef]] = {}
for _tree in list(SRC.values()) + list(TESTS.values()):
    for _node in ast.walk(_tree):
        if isinstance(_node, ast.ClassDef):
            CLASSES.setdefault(_node.name, []).append(_node)


def bare(node: ast.AST) -> Optional[str]:
    """The last identifier of a ``Name`` / dotted ``Attribute`` / call."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


@functools.lru_cache(maxsize=None)
def ancestors(name: str) -> FrozenSet[str]:
    """Bare names of every class above ``name`` (stdlib bases included)."""
    above: Set[str] = set()
    fringe = [name]
    while fringe:
        for cls in CLASSES.get(fringe.pop(), ()):
            for base in map(bare, cls.bases):
                if base and base not in above:
                    above.add(base)
                    fringe.append(base)
    return frozenset(above)


@functools.lru_cache(maxsize=None)
def family(name: str) -> FrozenSet[str]:
    """``name``'s ancestors and descendants (not itself, not siblings)."""
    return ancestors(name) | {other for other in CLASSES
                              if name in ancestors(other)}


def methods_of(names: FrozenSet[str]) -> Set[str]:
    return {item.name for name in names for cls in CLASSES.get(name, ())
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def dispatched(found: Def) -> bool:
    """Reached by the interpreter or a name-built ``getattr``, not by name."""
    name = found.name
    return name.startswith(DISPATCH) or (name.startswith("__")
                                         and name.endswith("__"))


def by_protocol(found: Def) -> bool:
    """Whether a protocol, not this def, decides the signature."""
    if dispatched(found):
        return True
    if found.owner is None or isinstance(found.node, ast.ClassDef):
        return False
    return found.name in methods_of(family(found.owner.rpartition(".")[2]))


class Site(NamedTuple):
    """One call: the node, the class it sits in, and the ``**kwargs``
    names of the functions around it (passing those on sets nothing)."""

    call: ast.Call
    cls: Optional[str]
    forwarded: FrozenSet[str]


class Mentions(ast.NodeVisitor):
    """Every identifier use and call in some trees, with where it sits.

    A use's scope is the census ``Def`` it sits in (``None`` outside
    ``src/repro`` and at module level, where everything runs).
    """

    def __init__(self) -> None:
        self.uses: Dict[str, Set[Scope]] = {}
        self.calls: Dict[str, List[Site]] = {}
        self.dict_keys: Set[str] = set()
        self.file = ""
        self.scopes: Dict[ast.AST, Tuple[str, str]] = {}
        self.stack: List[Tuple[Scope, Optional[str], FrozenSet[str]]] = [
            (None, None, frozenset())]

    def scan(self, file: str, tree: ast.Module) -> None:
        self.file = file
        self.visit(tree)

    def use(self, name: str) -> None:
        self.uses.setdefault(name, set()).add(self.stack[-1][0])

    def visit_scoped(self, node: ast.AST) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        scope, cls, forwarded = self.stack[-1]
        scope = self.scopes.get(node, scope)
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif node.args.kwarg is not None:
            forwarded |= {node.args.kwarg.arg}
        self.stack.append((scope, cls, forwarded))
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scoped

    def visit_Name(self, node: ast.Name) -> None:
        self.use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.use(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = bare(node.func)
        if callee:
            _, cls, forwarded = self.stack[-1]
            if callee == "cls" and cls:
                callee = cls  # a classmethod constructing its own class
            self.calls.setdefault(callee, []).append(
                Site(node, cls, forwarded))
        if callee == "dict":
            self.dict_keys.update(k.arg for k in node.keywords if k.arg)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self.dict_keys.update(
            key.value for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.file.startswith("bench/") and isinstance(node.value, str):
            target = SHIM_TARGET.match(node.value)
            if target or node.value.isidentifier():
                for part in (target.group(1) if target
                             else node.value).split("."):
                    self.use(part)

    def visit_Import(self, node: ast.AST) -> None:
        """Importing a name is not using it."""

    visit_ImportFrom = visit_Import


def mentions(trees: Dict[str, ast.Module]) -> Mentions:
    found = Mentions()
    found.scopes = {item.node: item.key for item in DEFS}
    for file, tree in trees.items():
        found.scan(file, tree)
    return found


MENTIONS = mentions(TREES)
IN_TESTS = mentions(TESTS)


def calls_of(name: str) -> List[Site]:
    """Call sites for the parameter count, ``tests/`` included."""
    return MENTIONS.calls.get(name, []) + IN_TESTS.calls.get(name, [])


def allowed(found: Def) -> bool:
    """In ``ALLOW``, or a member of a class that is."""
    names = found.qualname.split(".")
    return any(f"{found.file}::{'.'.join(names[:depth])}" in ALLOW
               for depth in range(1, len(names) + 1))


@functools.lru_cache(maxsize=None)
def dead_names(allow: bool = True) -> List[Def]:
    """Defs no live code mentions, to a fixed point."""
    by_key = {found.key: found for found in DEFS}
    dead: Set[Tuple[str, str]] = set()

    def runs(scope: Scope) -> bool:
        while scope is not None:
            if scope in dead:
                return False
            owner = by_key[scope].owner
            scope = (scope[0], owner) if owner else None
        return True

    def inside(scope: Scope, found: Def) -> bool:
        return scope is not None and scope[0] == found.file and (
            scope[1] == found.qualname
            or scope[1].startswith(found.qualname + "."))

    while True:
        newly = {found.key for found in DEFS
                 if found.key not in dead and not dispatched(found)
                 and not (allow and allowed(found))
                 and not any(runs(scope) and not inside(scope, found)
                             for scope in MENTIONS.uses.get(found.name, ()))}
        if not newly:
            return [by_key[key] for key in sorted(dead)]
        dead |= newly


class Settable(NamedTuple):
    """One defaulted parameter or field: who owns it and where it sits."""

    found: Def
    callee: str
    name: str
    position: Optional[int]

    @property
    def where(self) -> str:
        return f"{self.found.where}({self.name})"


def is_method(found: Def) -> bool:
    return found.owner is not None and not any(
        bare(decorator) == "staticmethod"
        for decorator in found.node.decorator_list)


def settables() -> Iterator[Settable]:
    for found in DEFS:
        node = found.node
        if isinstance(node, ast.ClassDef):
            if not ("NamedTuple" in map(bare, node.bases) or "dataclass"
                    in map(bare, node.decorator_list)):
                continue
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and bare(item.annotation) != "ClassVar"]
            for position, item in enumerate(fields):
                if item.value is not None:
                    yield Settable(found, node.name, item.target.id, position)
            continue
        if by_protocol(found) and found.name != "__init__":
            continue
        callee = (found.owner.rpartition(".")[2]
                  if found.name == "__init__" else found.name)
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if is_method(found) else 0
        first_default = len(positional) - len(node.args.defaults)
        for position, arg in enumerate(positional):
            if position >= max(first_default, skip):
                yield Settable(found, callee, arg.arg, position - skip)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield Settable(found, callee, arg.arg, None)


def call_sites(settable: Settable) -> Iterator[Tuple[Site, bool]]:
    """Calls that reach the settable's owner, and whether their positional
    arguments are the owner's own (not a subclass ``__init__``'s)."""
    for site in calls_of(settable.callee):
        yield site, True
    if isinstance(settable.found.node, ast.ClassDef):
        for site in calls_of("_replace"):
            yield site, False
    if settable.found.name != "__init__":
        return
    below = {name for name in CLASSES if settable.callee in ancestors(name)}
    for name in below:
        inherits = "__init__" not in methods_of(frozenset({name}))
        for site in calls_of(name):
            yield site, inherits
    for site in calls_of("__init__"):
        if site.cls in below:
            yield site, True


def is_set(settable: Settable) -> bool:
    for (call, _, forwarded), positional in call_sites(settable):
        for keyword in call.keywords:
            if keyword.arg == settable.name:
                return True
            if keyword.arg is None and bare(keyword.value) not in forwarded \
                    and settable.name in (MENTIONS.dict_keys
                                          | IN_TESTS.dict_keys):
                return True
        if positional and settable.position is not None and (
                len(call.args) > settable.position
                or any(isinstance(arg, ast.Starred) for arg in call.args)):
            return True
    return False


def is_stub(node: ast.AST) -> bool:
    """A body that is only a docstring, ``pass``, ``...`` or a ``raise``."""
    return all(isinstance(stmt, (ast.Pass, ast.Raise))
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant))
               for stmt in node.body)


def unread() -> Iterator[Settable]:
    for found in DEFS:
        node = found.node
        if isinstance(node, ast.ClassDef) or by_protocol(found) \
                or is_stub(node):
            continue
        read = {item.id for stmt in node.body for item in ast.walk(stmt)
                if isinstance(item, ast.Name)}
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for arg in params[1 if is_method(found) else 0:]:
            if arg.arg not in read and not arg.arg.startswith("_"):
                yield Settable(found, found.name, arg.arg, None)


def quoted_names(tree: ast.Module) -> Set[str]:
    """Identifiers inside string annotations and ``__all__`` entries."""
    spots: List[Optional[ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            spots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spots.append(node.returns)
        elif isinstance(node, ast.Assign) and "__all__" in map(
                bare, node.targets):
            spots.append(node.value)
    return {word for spot in spots if spot is not None
            for item in ast.walk(spot)
            if isinstance(item, ast.Constant) and isinstance(item.value, str)
            for word in re.findall(r"[A-Za-z_]\w*", item.value)}


def unused_imports(file: str, tree: ast.Module) -> Iterator[str]:
    lines = (ROOT / file).read_text("utf-8").splitlines()
    used = quoted_names(tree) | {node.id for node in ast.walk(tree)
                                 if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" \
                or "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound != "*" and bound not in used:
                yield f"{file}:{node.lineno} {bound}"


def test_every_name_is_reached_from_something_that_runs():
    dead = dead_names()
    assert dead == [], "unreferenced outside tests/:\n" + "\n".join(
        found.where for found in dead)


def test_allow_list_is_short_reasoned_and_current():
    assert len(ALLOW) <= 15
    assert all(reason.strip() for reason in ALLOW.values())
    needed = {f"{found.file}::{found.qualname}"
              for found in dead_names(allow=False)}
    assert set(ALLOW) <= needed, f"referenced or gone: {set(ALLOW) - needed}"


def test_every_defaulted_parameter_is_set_by_some_caller():
    dead = {found.key for found in dead_names()}
    never = [settable.where for settable in settables()
             if settable.found.key not in dead and not is_set(settable)]
    assert never == [], "never passed by any caller:\n" + "\n".join(never)


def test_every_parameter_is_read():
    ignored = [settable.where for settable in unread()]
    assert ignored == [], "accepted, never read:\n" + "\n".join(ignored)


def test_no_unused_imports():
    unused = [finding for file, tree in {**SRC, **TESTS}.items()
              if not file.endswith("__init__.py")
              for finding in unused_imports(file, tree)]
    assert unused == [], "\n".join(unused)
