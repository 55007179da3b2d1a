"""The line census's class table names defs that exist.

``scripts/line_census.py`` needs 3.12 and minutes to run; its ``CLASSES``
table is checked here on every interpreter in well under a second, so a
deleted or renamed def fails tier-1 instead of the next census.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location(
        "line_census", ROOT / "scripts" / "line_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_class_entry_names_a_def_that_exists(census):
    assert census.table_errors() == []


def test_a_stale_or_unreasoned_entry_is_reported(census, monkeypatch):
    monkeypatch.setattr(census, "CLASSES", {
        "src/repro/cli.py::gone": ("a", "input"),
        "src/repro/cli.py::main": ("a", "wishful"),
        "src/repro/cli.py::build_parser": ("b", "a paper mechanism"),
    })
    assert census.table_errors() == [
        "src/repro/cli.py::build_parser: a (b) reason cites its DESIGN.md "
        "row",
        "src/repro/cli.py::gone: no such def / class",
        "src/repro/cli.py::main: unknown degrade rule wishful",
    ]
