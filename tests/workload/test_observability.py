"""End-to-end observability determinism.

The tentpole contract, test-asserted: telemetry capture must never
perturb experiment results (zero-perturbation), sharded runs must
reproduce serial runs' telemetry byte for byte (artifact identity),
and the churn run's mislocalization burn-rate alert must fire during
the propagation gap and clear afterwards.
"""

import hashlib
import json

import pytest

from repro import telemetry as telemetry_mod
from repro.experiments.registry import builtin_registry
from repro.profile.slo import burn_rates
from repro.runtime.executor import TrialExecutor
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.exporters import to_json_artifact

POPULATION_OVERRIDES = {"districts": 2, "target_queries": 6000}
POPULATION_CONFIG = TelemetryConfig(trace_sample=0.05, window_ms=60000.0,
                                    tail_capacity=16)
CHURN_CONFIG = TelemetryConfig(trace_sample=1.0, window_ms=500.0,
                               tail_capacity=8)


def run_experiment(name, overrides, jobs, config=None):
    """Run one artifact, optionally under a telemetry facade."""
    tel = None
    if config is not None:
        tel = Telemetry.from_config(config)
        telemetry_mod.set_default(tel)
    try:
        run = TrialExecutor(jobs=jobs).run(builtin_registry().get(name),
                                           overrides)
    finally:
        telemetry_mod.clear_default()
    assert not run.failures
    return run, tel


def span_tuples(tel):
    return [(span.trace_id, span.span_id, span.parent_id, span.name,
             span.category, span.track, span.start_ms, span.end_ms,
             tuple(sorted(span.attrs.items())))
            for span in tel.tracer.finished]


def artifact_bytes(run, tel):
    """The byte-compared artifact view: everything except wall-clock meta."""
    document = to_json_artifact(
        tel.metrics, spans=tel.tracer.finished,
        meta={"executor": run.executor_stats.to_dict()},
        timeseries=tel.timeseries, tail=tel.tail)
    document.pop("meta")   # wall-clock chunk stats are allowed to differ
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def population_runs():
    bare, _ = run_experiment("population", POPULATION_OVERRIDES, jobs=1)
    serial = run_experiment("population", POPULATION_OVERRIDES, jobs=1,
                            config=POPULATION_CONFIG)
    sharded = run_experiment("population", POPULATION_OVERRIDES, jobs=2,
                             config=POPULATION_CONFIG)
    return bare, serial, sharded


@pytest.fixture(scope="module")
def churn_runs():
    bare, _ = run_experiment("churn", {}, jobs=1)
    serial = run_experiment("churn", {}, jobs=1, config=CHURN_CONFIG)
    sharded = run_experiment("churn", {}, jobs=2, config=CHURN_CONFIG)
    return bare, serial, sharded


class TestZeroPerturbation:
    def test_population_digest_identical_with_telemetry_on(
            self, population_runs):
        bare, (serial, _), (sharded, _) = population_runs
        assert serial.result == bare.result
        assert sharded.result == bare.result

    def test_churn_result_identical_with_telemetry_on(self, churn_runs):
        bare, (serial, _), (sharded, _) = churn_runs
        assert serial.result == bare.result
        assert sharded.result == bare.result


class TestShardedByteIdentity:
    def test_population_artifact_identical(self, population_runs):
        _, (serial_run, serial_tel), (sharded_run, sharded_tel) = \
            population_runs
        assert span_tuples(sharded_tel) == span_tuples(serial_tel)
        assert sharded_tel.tracer.sampled_out == serial_tel.tracer.sampled_out
        assert sharded_tel.tail.items() == serial_tel.tail.items()
        assert artifact_bytes(sharded_run, sharded_tel) == \
            artifact_bytes(serial_run, serial_tel)

    def test_churn_artifact_identical(self, churn_runs):
        _, (serial_run, serial_tel), (sharded_run, sharded_tel) = churn_runs
        assert span_tuples(sharded_tel) == span_tuples(serial_tel)
        assert artifact_bytes(sharded_run, sharded_tel) == \
            artifact_bytes(serial_run, serial_tel)


class TestTelemetryGolden:
    """Every telemetry byte of the population fixture, pinned.

    Recorded at the commit before the kernel/observer split
    (f477b8b); re-recorded when the public resolvers became cache →
    forward plugin chains, which moved their cache probes from the
    ``ldns.*`` names to the ``coredns.*`` ones.  Covers the engine's
    windows, sampled session trees and tail exemplars as well as the
    packet-level spans calibration emits; re-record only for a change
    that means to move them.
    """

    ARTIFACT_SHA256 = (
        "ffea3310e25a53dcd86e3e58b4b91c2a6d81d743cb6a53555bd88898c12da1a2")
    SPANS_SHA256 = (
        "5cc9299d2a419ddf561c23f03903cae0d69ebdf205f16619c519f9c0f206a1b6")

    @pytest.mark.parametrize("which", ["serial", "sharded"])
    def test_population_telemetry_bytes(self, population_runs, which):
        run, tel = population_runs[1 if which == "serial" else 2]
        assert hashlib.sha256(artifact_bytes(run, tel).encode()) \
            .hexdigest() == self.ARTIFACT_SHA256
        assert hashlib.sha256(repr(span_tuples(tel)).encode()) \
            .hexdigest() == self.SPANS_SHA256

    def test_telemetry_bytes_do_not_depend_on_how_sum_adds_floats(
            self, compensated_sum):
        # Histogram sums drifted on 3.12, whose sum() is compensated.
        run, tel = run_experiment("population", POPULATION_OVERRIDES, jobs=1,
                                  config=POPULATION_CONFIG)
        assert hashlib.sha256(artifact_bytes(run, tel).encode()) \
            .hexdigest() == self.ARTIFACT_SHA256
        assert hashlib.sha256(repr(span_tuples(tel)).encode()) \
            .hexdigest() == self.SPANS_SHA256


class TestCapturedShape:
    def test_population_sampling_captured_sessions(self, population_runs):
        _, (run, tel), _ = population_runs
        # Calibration lookups ride the measure path; the engine's
        # session trees are the category="workload" spans.
        spans = [span for span in tel.tracer.finished
                 if span.category == "workload"]
        assert spans, "0.05 head sampling should still capture sessions"
        roots = [span for span in spans if span.parent_id is None]
        kids = [span for span in spans if span.parent_id is not None]
        assert all(span.name == "session" for span in roots)
        assert all(span.name == "query" for span in kids)
        root_ids = {span.span_id for span in roots}
        assert all(span.parent_id in root_ids for span in kids)
        # Head sampling kept a strict subset, and every dropped query
        # is accounted for in sampled_out (the engine counts queries it
        # pre-filtered; the measure path adds its own drops on top).
        queries = sum(row.queries for row in run.result.rows)
        assert 0 < len(kids) < queries
        assert len(kids) + tel.tracer.sampled_out >= queries

    def test_population_timeseries_accounts_every_query(
            self, population_runs):
        _, (run, tel), _ = population_runs
        document = tel.timeseries.to_dict()
        queries = sum(
            window["value"]
            for series in document["series"]
            if series["name"] == "repro_workload_queries"
            for window in series["windows"])
        latency_counts = sum(
            window["count"]
            for series in document["series"]
            if series["name"] == "repro_workload_total_ms"
            for window in series["windows"])
        assert queries == latency_counts
        assert queries == sum(row.queries for row in run.result.rows)

    def test_tail_exemplars_have_stage_attribution(self, population_runs):
        _, (_, tel), _ = population_runs
        exemplars = tel.tail.items()
        assert exemplars
        for exemplar in exemplars:
            stage_sum = sum(ms for _, ms in exemplar.stages)
            assert stage_sum == pytest.approx(exemplar.total_ms, abs=1e-6)
            assert dict(exemplar.attrs).get("deployment")

    def test_executor_stats_cover_every_trial(self, population_runs):
        _, (serial_run, _), (sharded_run, _) = population_runs
        for run in (serial_run, sharded_run):
            stats = run.executor_stats
            assert stats is not None
            assert sum(chunk.trials for chunk in stats.chunks) == \
                len(run.outcomes)
        assert serial_run.executor_stats.backend == "serial"
        assert sharded_run.executor_stats.backend == "pool"


class TestChurnBurnRate:
    #: (deployment, bad, total, budget): the mislocalized share of answers
    #: against a 5% error budget.
    BURN = ("mec-ldns-mec-cdns", "repro_control_mislocalized",
            "repro_control_answers", 0.05)

    def test_alert_fires_during_propagation_gap_and_clears(
            self, churn_runs):
        # The rollout at t=2600 ms invalidates every endpoint; until the
        # zone propagates, mislocalized answers burn the budget at >= 2x
        # over both the 1 s and 2 s trailing windows, and the alert is
        # quiet again for the final 3 windows (recovered).
        _, (_, tel), _ = churn_runs
        timeseries = tel.timeseries.to_dict()
        burns = burn_rates(timeseries, *self.BURN, fast=2, slow=4)
        firing = [index for index, burn in burns.items() if burn >= 2.0]
        assert firing and max(burns.values()) >= 2.0
        assert max(firing) <= max(burns) - 3, firing
        # Sanity bound: the burn never stays absurd long enough to trip
        # a 20x factor over an 8-window fast view.
        assert max(burn_rates(timeseries, *self.BURN, fast=8,
                              slow=16).values()) < 20.0

    def test_annotations_mark_the_churn_timeline(self, churn_runs):
        _, (_, tel), _ = churn_runs
        names = {annotation[1] for annotation in tel.timeseries.annotations()}
        assert {"churn", "zone_update", "zone_applied"} <= names
