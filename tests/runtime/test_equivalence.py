"""Serial vs. sharded equivalence for every registered experiment.

The runtime's core determinism claim: for each artifact, a ``--jobs 1``
run and a ``--jobs 2`` run produce byte-identical rendered text and
equal result digests.  Parameters are scaled down so the whole registry
stays affordable, but every experiment is exercised through both
backends — nothing is sampled out.
"""

import pytest

from repro import telemetry
from repro.experiments.registry import builtin_registry
from repro.runtime import TrialExecutor, result_digest
from repro.telemetry import exporters

#: Scaled-down overrides per artifact (empty = declared defaults are
#: already cheap).  Values chosen to keep every shape of trial plan —
#: multi-cell sweeps, single-cell tables — represented.
OVERRIDES = {
    "table1": {},
    "table2": {},
    "figure2": {"trials": 6},
    "figure3": {"trials": 6},
    "figure5": {"queries": 4},
    "ecs": {"queries": 4},
    "mislocalization": {"trials": 4},
    "disaggregation": {"requests": 120},
    "envelope-sweep": {"queries": 3, "distances": (1.0, 4.0, 12.0)},
    "overload": {"attack_qps": 800.0},
    "access-latency": {"rounds": 3},
    "capacity": {"duration_ms": 250.0, "rates": (500.0, 3000.0)},
    "resilience": {"queries": 3},
    "churn": {"queries": 3},
    "population": {"target_queries": 320, "catalog": 2000,
                   "cache_capacity": 50},
}

#: Experiments that never build a network, so have nothing to observe.
NO_NETWORK = {"table1", "table2", "disaggregation"}

REGISTRY = builtin_registry()


def test_every_registered_experiment_is_covered():
    assert sorted(OVERRIDES) == sorted(REGISTRY.names())


@pytest.mark.parametrize("name", REGISTRY.names())
def test_sharded_run_matches_serial(name):
    experiment = REGISTRY.get(name)
    overrides = OVERRIDES[name]
    serial = TrialExecutor(jobs=1).run(experiment, overrides)
    sharded = TrialExecutor(jobs=2).run(experiment, overrides)
    assert serial.ok, [f.describe() for f in serial.failures]
    assert sharded.ok, [f.describe() for f in sharded.failures]
    assert experiment.render_result(sharded.result) == \
        experiment.render_result(serial.result)
    assert result_digest(sharded.result) == result_digest(serial.result)
    assert [o.spec for o in sharded.outcomes] == \
        [o.spec for o in serial.outcomes]


@pytest.mark.parametrize("name", REGISTRY.names())
def test_result_digest_identical_with_telemetry_on(name):
    """Zero perturbation: observing a run must not change its result."""
    experiment = REGISTRY.get(name)
    plain = TrialExecutor(jobs=1).run(experiment, OVERRIDES[name])
    session = telemetry.Telemetry()
    telemetry.set_default(session)
    try:
        observed = TrialExecutor(jobs=1).run(experiment, OVERRIDES[name])
    finally:
        telemetry.clear_default()
    assert plain.ok, [f.describe() for f in plain.failures]
    assert observed.ok, [f.describe() for f in observed.failures]
    assert result_digest(observed.result) == result_digest(plain.result)
    # Not vacuous: the session really watched the second run.
    assert (len(session.metrics) > 0) == (name not in NO_NETWORK)


def _telemetry_artifact(tmp_path, jobs):
    session = telemetry.Telemetry()
    telemetry.set_default(session)
    try:
        run = TrialExecutor(jobs=jobs).run(REGISTRY.get("figure5"),
                                           {"queries": 3})
        assert run.ok
    finally:
        telemetry.clear_default()
    path = tmp_path / f"metrics-{jobs}.json"
    exporters.write_json_artifact(session.metrics, str(path),
                                  spans=session.tracer.finished)
    return path.read_bytes()


def test_telemetry_artifact_is_byte_identical_across_backends(tmp_path):
    assert _telemetry_artifact(tmp_path, 1) == _telemetry_artifact(tmp_path, 2)
