"""The line census's class table names defs that exist, and its
surfaces are the commands CI runs.

``scripts/line_census.py`` needs 3.12 and minutes to run; its ``CLASSES``
table is checked here on every interpreter in well under a second, so a
deleted or renamed def or parameter fails tier-1 instead of the next
census.
"""

import re

import pytest

from tests.static import line_census
from tests.static.index import ROOT


@pytest.fixture(scope="module")
def census():
    return line_census()


def test_every_class_entry_names_a_def_that_exists(census):
    assert census.table_errors() == []


def test_a_stale_or_unreasoned_entry_is_reported(census, monkeypatch):
    monkeypatch.setattr(census, "CLASSES", {
        "src/repro/cli.py::gone": ("a", "input"),
        "src/repro/cli.py::main": ("a", "wishful"),
        "src/repro/cli.py::build_parser": ("b", "a paper mechanism"),
        "src/repro/cli.py::_cmd_dig": (
            "b", "DESIGN.md §3 Resolver stack: the dig the paper measured "
            "with — a paraphrase"),
        "src/repro/cli.py::_run_dig": (
            "b", "DESIGN.md §3 Resolver stack: stub resolver = the `dig` "
            "analog — quoted"),
        "src/repro/cli.py::main(argv)": ("c", "argv, which tests feed"),
        "src/repro/cli.py::main(args)": ("c", "a parameter that is not"),
        "src/repro/cli.py::main[DET001]": (1, "a finding row"),
        "src/repro/cli.py::main[RACE001]": (0, "a count of none"),
        "src/repro/cli.py::gone[RACE001]": (1, "a def that is not"),
    })
    assert census.table_errors() == [
        "src/repro/cli.py::_cmd_dig: a (b) reason quotes its mechanism from "
        "DESIGN.md, not 'the dig the paper measured with'",
        "src/repro/cli.py::build_parser: a (b) reason cites its DESIGN.md "
        "row",
        "src/repro/cli.py::gone: no such def / class",
        "src/repro/cli.py::gone[RACE001]: no such def / class",
        "src/repro/cli.py::main: unknown degrade rule wishful",
        "src/repro/cli.py::main(args): no such parameter",
        "src/repro/cli.py::main[RACE001]: a finding row gives its count and "
        "a reason",
    ]


def ci_commands():
    """Each ``python -m repro.cli`` command of the CI workflow, as its
    arguments, with ``for x in a b; do`` loops unrolled."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text("utf-8")
    commands = []
    for step in re.split(r"\n\s*- ", text):
        folded, _, script = step.partition("run: >")
        # A folded (``>``) script is one line; a literal one is a line per
        # command, with backslash continuations.
        lines = ([" ".join(script.split())] if folded != step
                 else step.replace("\\\n", " ").splitlines())
        loop = re.search(r"for (\w+) in ([^;]+); do", step)
        for found in (match for line in lines for match in re.finditer(
                r"python -m repro\.cli ([^|>;]+)", line)):
            args = found.group(1).split()
            if loop is None:
                commands.append(args)
                continue
            variable, values = loop.group(1), loop.group(2).split()
            commands.extend([arg.replace(f"${variable}", value)
                             for arg in args] for value in values)
    return commands


def command_shape(args):
    """``args`` with file names and the repo root left out."""
    shape = []
    for arg in args:
        arg = arg.replace(str(ROOT) + "/", "")
        shape.append("<file>" if arg.endswith((".json", ".txt"))
                     or arg == "profile-out" else arg)
    return shape


def test_surfaces_are_the_ci_commands(census):
    """``SURFACES`` decides which options may exist, so it lists what CI
    runs: the same ``repro`` commands, output file names aside."""
    assert sorted(map(command_shape, census.SURFACES)) == \
        sorted(map(command_shape, ci_commands()))
