"""Smoke test of the benchmark itself, at a hundredth of the issue's sizes.

    python -m pytest bench -q

Outside tier-1's ``testpaths`` on purpose: it spawns processes and reads the
wall clock.  It checks the contract, not the numbers: every metric that
``BENCHMARK.json`` names comes out with its unit and a finite value, names
and counts stay inside the limits, repeats digest alike, and ``--compare``
can read what a run wrote.
"""
from __future__ import annotations

import json
import math
import re

import pytest

import run
from workloads import BY_NAME

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SCALE, SECONDS = 0.01, 0.5

with open(run.ROOT / "BENCHMARK.json") as handle:
    DECLARED = json.load(handle)


def test_declaration_stays_inside_the_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(BY_NAME)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in DECLARED["end_to_end"])


def finite(metrics):
    return all(math.isfinite(metric["value"]) and metric["unit"]
               for metric in metrics.values())


@pytest.mark.parametrize("name", list(BY_NAME))
def test_workload_end_to_end(name):
    result = run.end_to_end(name, 42, SCALE, SECONDS, repeats=2)
    metrics = run.with_units(result["values"], DECLARED["end_to_end"])
    assert finite(metrics) and all(m["value"] > 0 for m in metrics.values())
    # Two fresh children, several units each: one digest, nothing failed.
    assert result["units"] >= 2
    assert result["failed"] == 0 and not result["problems"]


@pytest.mark.parametrize("name", list(BY_NAME))
def test_workload_per_layer(name):
    result = run.per_layer(name, 42, SCALE, SECONDS, BY_NAME[name].twin,
                           nproc=2)
    metrics = run.with_units(result["values"], DECLARED["per_layer"])
    assert finite(metrics)
    # Shim hygiene (digest on/off, originals restored) lands in problems.
    assert result["failed"] == 0 and not result["problems"]
    assert metrics["trace.shim_ns"]["value"] > 0
    assert metrics["runtime.executor.run.calls"]["value"] >= 1
    if BY_NAME[name].telemetry is None:
        assert metrics["telemetry.tracer.ingest.calls"]["value"] == 0
        assert metrics["telemetry.tail.offer.calls"]["value"] == 0
    with open(run.OUT / f"trace-{name}.json") as handle:
        assert len(json.load(handle)["spans"]) > 0


def test_one_cpu_leaves_the_speedup_unresolved():
    result = run.per_layer("population_grid", 42, SCALE, SECONDS,
                           None, nproc=1)
    assert result["unresolved"] == ["runtime.executor.speedup_jobs2"]


def sample(value, samples):
    return {"value": value, "unit": "u", "samples": samples}


def test_compare_verdicts(tmp_path, capsys):
    declared = [{"name": "queries_per_s", "unit": "ops/s",
                 "better": "higher", "bound": 0.1}]

    def write(name, value, samples):
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {"w": {
            "end_to_end": {"queries_per_s": sample(value, samples)},
            "per_layer": {}, "failed": 0, "digest": "d"}}}))
        return str(path)

    base = write("base.json", 100.0, [99.0, 100.0, 101.0])
    assert run.compare(base, write("same.json", 97.0, [96.0, 97.0, 98.0]),
                       declared) == 0
    assert " ok" in capsys.readouterr().out
    assert run.compare(base, write("slow.json", 80.0, [79.0, 80.0, 81.0]),
                       declared) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(base, write("noisy.json", 99.0, [80.0, 99.0, 120.0]),
                       declared) == 0
    assert "unresolved" in capsys.readouterr().out
