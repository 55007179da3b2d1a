"""Golden-digest regression suite: the byte-identity contract.

The hot-path overhaul (calendar-queue scheduler, lazy wire views,
chunked dispatch over a persistent worker pool) is allowed to change
*speed* only.  This suite pins every registered experiment's
``result_digest`` to the value committed in ``golden_digests.json`` —
captured before the overhaul — and asserts it both serially and under
``--jobs 2``.  A drift here is a behaviour change, never noise: either
an optimisation broke byte-identity (a bug), or an experiment
deliberately changed and the goldens must be re-recorded with
``PYTHONPATH=src python scripts/make_goldens.py``.
"""

import json
import pathlib

import pytest

from repro.experiments.registry import builtin_registry
from repro.runtime import TrialExecutor, result_digest

GOLDENS_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
GOLDENS_FORMAT = "repro-golden-digests-v1"


def _tuplify(value):
    """JSON has no tuples; sequence-valued overrides are tuples in code."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


def _load_goldens():
    document = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert document["format"] == GOLDENS_FORMAT
    return document["goldens"]


GOLDENS = _load_goldens()
REGISTRY = builtin_registry()


def test_every_registered_experiment_has_a_golden():
    assert sorted(GOLDENS) == sorted(REGISTRY.names())


@pytest.mark.parametrize("jobs", (1, 2), ids=("serial", "jobs2"))
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digest_matches_golden(name, jobs):
    golden = GOLDENS[name]
    run = TrialExecutor(jobs=jobs).run(REGISTRY.get(name),
                                       _tuplify(golden["overrides"]))
    assert run.ok, [failure.describe() for failure in run.failures]
    assert result_digest(run.result) == golden["digest"], (
        f"{name} drifted from its golden digest with jobs={jobs}; if the "
        f"behaviour change is deliberate, re-record with "
        f"scripts/make_goldens.py")


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digest_does_not_depend_on_how_sum_adds_floats(name,
                                                       compensated_sum):
    # 3.12 made builtin sum() compensated over floats; a digest that went
    # through it held on 3.11 and drifted on 3.12 (capacity, figure2 and
    # mislocalization did).  Serial only: pool workers may predate the swap.
    golden = GOLDENS[name]
    run = TrialExecutor(jobs=1).run(REGISTRY.get(name),
                                    _tuplify(golden["overrides"]))
    assert run.ok, [failure.describe() for failure in run.failures]
    assert result_digest(run.result) == golden["digest"], (
        f"{name}'s digest depends on how builtin sum() adds floats; total "
        f"floats left to right (docs/DETERMINISM.md)")
