"""Suite-wide pytest configuration.

Registers the hypothesis profile CI selects with
``--hypothesis-profile=ci``: derandomized, so a property that fails
there fails on the same example for whoever replays the commit.  A
plain local run keeps hypothesis's default (random) profile, which is
what finds new counterexamples.

The ``compensated_sum`` fixture swaps ``builtins.sum`` for the
compensated float sum 3.12 and later use, so a golden test can show on
any interpreter that its digest does not depend on how ``sum`` adds
floats (docs/DETERMINISM.md, "Floats are added left to right").
"""

import builtins
import math

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)

_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, start=0):
    """Neumaier summation over ints and floats, as CPython 3.12's ``sum``."""
    items = list(iterable)
    numbers = (start, *items)
    if not all(type(value) in (int, float) for value in numbers) or all(
            type(value) is int for value in numbers):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for value in items:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Run the test with ``builtins.sum`` compensated over floats."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
