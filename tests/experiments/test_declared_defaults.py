"""Every artifact at its declared defaults: what the CLI prints.

``python -m repro.cli experiment <name>`` with no flags runs an
artifact at its ``Param`` defaults through the executor and prints its
shape claims; the per-file tests run reduced sizes.  Here each
artifact runs exactly as the CLI runs it and every claim must hold, the
claims it states are the ones EXPERIMENTS.md's claim-sweep table lists,
and the numbers README quotes from that output are compared with it.
"""

import functools
import pathlib
import re

import pytest

from repro.experiments.registry import builtin_registry
from repro.runtime import TrialExecutor

REGISTRY = builtin_registry()
README = pathlib.Path(__file__).resolve().parents[2] / "README.md"
EXPERIMENTS = README.with_name("EXPERIMENTS.md")


@functools.lru_cache(maxsize=None)
def at_defaults(name):
    run = TrialExecutor(jobs=1).run(REGISTRY.get(name), {})
    assert run.ok, [failure.describe() for failure in run.failures]
    return run.result


@pytest.mark.parametrize("name", [experiment.name
                                  for experiment in REGISTRY])
def test_shape_claims_hold_at_declared_defaults(name):
    assert REGISTRY.get(name).check_shape(at_defaults(name)) == []


@pytest.mark.parametrize("name", [experiment.name
                                  for experiment in REGISTRY])
def test_claim_sweep_table_lists_the_stated_claims(name):
    """Sweep rows are ``| artifact | claim | k/n | ...``."""
    rows = re.findall(r"^\| ([\w-]+) \| ([^|]+) \| \d+/\d+ \|",
                      EXPERIMENTS.read_text("utf-8"), re.MULTILINE)
    listed = sorted(claim for artifact, claim in rows if artifact == name)
    stated = REGISTRY.get(name).claims(at_defaults(name))
    assert listed == sorted(claim.name for claim in stated)


def test_readme_figure5_table_is_the_default_run():
    """README's headline table: ``| label | paper | measured |`` rows."""
    table = README.read_text("utf-8").split(
        "Headline result (Figure 5", 1)[1].split("\n\n")[1]
    rows = dict(re.findall(r"^\| ([^|]+) \| [\d.]+ \| ([\d.]+) \|$",
                           table, re.MULTILINE))
    result = at_defaults("figure5")
    assert rows == {row.label: f"{row.latency.mean:.1f}"
                    for row in result.rows}
