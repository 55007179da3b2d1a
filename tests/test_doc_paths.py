"""Every repo path and ``repro.…`` name the docs quote exists.

README, DESIGN, EXPERIMENTS and ``docs/*.md`` name files and dotted
Python names in backticks and in fenced command blocks; a deletion that
forgets one leaves a doc pointing at nothing.  CHANGES.md, ROADMAP.md
and ``bench/README.md`` are history (they name deleted files on
purpose) and are not scanned; CHANGES.md is only held to a line width.
"""

import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

#: Inline code spans and fenced blocks — the only places docs quote paths.
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
#: A path under a tracked top-level directory, or an upper-case root
#: document (lower-case bare names like ``trace.json`` are run outputs).
#: Not matched: globs and placeholders, which name a family of files, and
#: ``bench/out/``, which ``bench/run.py`` writes and git ignores.
REPO_PATH = re.compile(
    r"^(?!bench/out/)"
    r"(?:(?:src|tests|scripts|bench|docs|examples)/[^\s*<>{}…$]+"
    r"|[A-Z][A-Za-z_]*\.(?:json|md))$")
#: A fully dotted name under the package, as written or called.
REPRO_NAME = re.compile(r"^repro(?:\.[A-Za-z_]\w*)+(?:\(\))?$")


def quoted(text, pattern):
    for code in CODE.findall(text):
        for token in code.strip("`").split():
            token = token.split("::")[0].rstrip(".,;:)")
            if pattern.match(token):
                yield token


def resolves(dotted):
    """Whether ``dotted`` imports: a module, then attributes of it."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_quoted_paths_exist():
    missing = [(doc.name, path) for doc in DOCS
               for path in sorted(set(quoted(doc.read_text("utf-8"),
                                             REPO_PATH)))
               if not (ROOT / path).exists()]
    assert missing == []


def test_quoted_repro_names_resolve():
    missing = [(doc.name, name) for doc in DOCS
               for name in sorted(set(quoted(doc.read_text("utf-8"),
                                             REPRO_NAME)))
               if not resolves(name.rstrip("()"))]
    assert missing == []


def test_changes_lines_are_wrapped():
    """CHANGES.md is read in a terminal and a diff: no line over 200
    characters."""
    long_lines = [number for number, line in enumerate(
        (ROOT / "CHANGES.md").read_text("utf-8").splitlines(), 1)
        if len(line) > 200]
    assert long_lines == []
