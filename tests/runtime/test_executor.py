"""Tests for the sharded trial executor and its isolation contract.

The toy experiments live at module level so worker processes can
unpickle them by qualified name (the tests package is importable).
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro import telemetry
from repro.runtime import (Experiment, Param, TrialExecutor, derive_seed,
                           result_digest)

ROOT = pathlib.Path(__file__).resolve().parents[2]


class SquareExperiment(Experiment):
    """Cheap deterministic toy: square each cell's value."""

    name = "square"
    title = "toy squares"
    params = (Param("count", int, 4, "number of cells"),
              Param("seed", int, 7, "base seed"))

    def trials(self, params):
        return [self.spec(index,
                          seed=derive_seed(int(params["seed"]),
                                           "square", index),
                          value=index)
                for index in range(int(params["count"]))]

    def run_trial(self, spec):
        value = int(spec.value("value"))
        tel = telemetry.get_default()
        if tel is not None:
            tel.metrics.counter("toy_trials_total", "trials run").inc()
            span = tel.tracer.begin("trial", "toy", "square", value=value)
            tel.tracer.end(span)
        return (value * value, spec.seed)

    def merge(self, params, payloads):
        return [payload[0] for payload in payloads]


class ExplodingExperiment(Experiment):
    """One poisoned cell; its siblings must survive it."""

    name = "exploding"
    title = "toy with one crashing trial"
    params = (Param("count", int, 3, "number of cells"),)

    def trials(self, params):
        return [self.spec(index, seed=0, value=index)
                for index in range(int(params["count"]))]

    def run_trial(self, spec):
        if spec.value("value") == 1:
            raise RuntimeError("boom at 1")
        return spec.value("value")

    def merge(self, params, payloads):
        return list(payloads)


class WorkerKillingExperiment(Experiment):
    """One cell SIGKILLs the worker process running it, as the OOM
    killer would; in the parent process it is a plain cell."""

    name = "worker-killing"
    title = "toy whose trial kills its own worker"
    params = (Param("count", int, 4, "number of cells"),)

    def trials(self, params):
        return [self.spec(index, seed=0, value=index)
                for index in range(int(params["count"]))]

    def run_trial(self, spec):
        if spec.value("value") == 1 \
                and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return spec.value("value")

    def merge(self, params, payloads):
        return list(payloads)


#: A dead worker, then a healthy sweep, in one fresh interpreter; last,
#: the Python thread counts every pool fork saw (a fork beside a live
#: thread can deadlock the child, which Python 3.12+ only warns about).
DEAD_WORKER_SCRIPT = """
import os, threading
from concurrent.futures.process import BrokenProcessPool
from repro.runtime import TrialExecutor
from tests.runtime.test_executor import (SquareExperiment,
                                         WorkerKillingExperiment)
threads_at_fork = set()
fork = os.fork
def counted_fork():
    threads_at_fork.add(threading.active_count())
    return fork()
os.fork = counted_fork
try:
    TrialExecutor(jobs=2).run(WorkerKillingExperiment())
except BrokenProcessPool:
    print("raised")
print(TrialExecutor(jobs=2).run(SquareExperiment()).result)
print(sorted(threads_at_fork))
"""


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            TrialExecutor(jobs=0)

    def test_serial_run(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment())
        assert run.ok
        assert run.result == [0, 1, 4, 9]
        assert [outcome.spec.index for outcome in run.outcomes] == [0, 1, 2, 3]

    def test_overrides_resolve(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 2})
        assert run.result == [0, 1]
        assert dict(run.params)["count"] == 2

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            TrialExecutor(jobs=1).run(SquareExperiment(), {"bogus": 1})

    def test_pool_matches_serial(self):
        experiment = SquareExperiment()
        serial = TrialExecutor(jobs=1).run(experiment, {"count": 6})
        pooled = TrialExecutor(jobs=2).run(experiment, {"count": 6})
        assert pooled.result == serial.result
        assert result_digest(pooled.result) == result_digest(serial.result)
        # Payload seeds travelled through the pickle boundary unchanged.
        assert [o.payload for o in pooled.outcomes] == \
            [o.payload for o in serial.outcomes]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_failure_is_isolated(self, jobs):
        run = TrialExecutor(jobs=jobs).run(ExplodingExperiment())
        assert not run.ok
        assert run.result is None
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.error == "RuntimeError"
        assert failure.message == "boom at 1"
        assert "boom at 1" in failure.traceback
        assert "exploding[1]" in failure.describe()
        # The siblings still produced their payloads.
        payloads = [outcome.payload for outcome in run.outcomes]
        assert payloads[0] == 0 and payloads[2] == 2


class TestTelemetryCapture:
    def teardown_method(self):
        telemetry.clear_default()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_session_telemetry_collects_across_trials(self, jobs):
        session = telemetry.Telemetry()
        telemetry.set_default(session)
        run = TrialExecutor(jobs=jobs).run(SquareExperiment(), {"count": 4})
        assert run.ok
        # The session facade is still installed after the run.
        assert telemetry.get_default() is session
        counter = session.metrics.counter("toy_trials_total", "trials run")
        assert sum(value for _, value in counter.samples()) == 4.0
        assert len(session.tracer.finished) == 4

    def test_sharded_telemetry_merges_in_spec_order(self):
        serial = telemetry.Telemetry()
        telemetry.set_default(serial)
        TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 5})
        telemetry.clear_default()

        pooled = telemetry.Telemetry()
        telemetry.set_default(pooled)
        TrialExecutor(jobs=2).run(SquareExperiment(), {"count": 5})
        telemetry.clear_default()

        serial_values = [span.attrs.get("value")
                         for span in serial.tracer.finished]
        pooled_values = [span.attrs.get("value")
                         for span in pooled.tracer.finished]
        assert pooled_values == serial_values == [0, 1, 2, 3, 4]

    def test_no_session_means_no_capture(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 2})
        assert run.ok
        assert telemetry.get_default() is None


class TestDeadWorker:
    """The failure rule: a worker that dies fails the sweep, never hangs it."""

    def test_dead_worker_fails_the_sweep_and_the_next_one_runs(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]))
        # Its own session, so a timeout can reach the pool workers too.
        child = subprocess.Popen(
            [sys.executable, "-c", DEAD_WORKER_SCRIPT], cwd=str(ROOT),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a killed worker hung the sweep")
        assert child.returncode == 0, err
        assert out.splitlines() == ["raised", "[0, 1, 4, 9]", "[1]"]

