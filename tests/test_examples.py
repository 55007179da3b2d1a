"""Smoke tests: every example script runs to completion.

Examples are executable documentation, and tests: no CI job runs them
but this one, so both censuses count them on the tier-1 side.  Each
runs in-process via runpy with stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_all_scripts():
    # The exact set: an example may be a mechanism's only runner, so
    # deleting one is an edit here, not a silent drop.
    assert EXAMPLES == ["arvr_latency_budget.py", "dos_fallback.py",
                        "mobility_handoff.py", "public_cdn_measurement.py",
                        "quickstart.py", "zone_transfer_ops.py"]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # every example narrates what it did
    assert "Traceback" not in out
