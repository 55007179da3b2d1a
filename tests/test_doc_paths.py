"""Every repo path the docs quote exists.

README, DESIGN, EXPERIMENTS and ``docs/*.md`` name files in backticks
and in fenced command blocks; a deletion that forgets one leaves a doc
pointing at nothing.  CHANGES.md, ROADMAP.md and ``bench/README.md``
are history (they name deleted files on purpose) and are not scanned.
"""

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
    r"(?:(?:src|tests|scripts|bench|docs|slo|examples)/[^\s*<>{}…$]+"
    r"|[A-Z][A-Za-z_]*\.(?:json|md))$")


def quoted_paths(text):
    for code in CODE.findall(text):
        for token in code.strip("`").split():
            token = token.split("::")[0].rstrip(".,;:)")
            if REPO_PATH.match(token):
                yield token


def test_quoted_paths_exist():
    missing = [(doc.name, path) for doc in DOCS
               for path in sorted(set(quoted_paths(doc.read_text("utf-8"))))
               if not (ROOT / path).exists()]
    assert missing == []
