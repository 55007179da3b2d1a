"""Tests for the measurement driver's retry accounting.

The TIMEOUT path must report the transmissions the stub *actually*
issued for that lookup, not the policy's configured ceiling — with
hedging enabled the two differ, and under fault injection the real
count is the datum the resilience experiment publishes.
"""

import pytest

from repro.core.deployments import build_testbed
from repro.measure.runner import measure_deployment_run
from repro.netsim.engine import ProcessFailed
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver


def _blackholed_testbed():
    """An all-MEC testbed whose UE is partitioned from everything."""
    testbed = build_testbed("mec-ldns-mec-cdns", seed=0)
    testbed.network.partition([testbed.ue.host.name])
    return testbed


class TestTimeoutAttempts:
    def test_attempts_count_real_transmissions_including_hedges(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=2, timeout_ms=100.0,
                             hedge_after_ms=10.0)
        run = measure_deployment_run(testbed, 1, warmup=0,
                                     stub=testbed.ue.stub(policy))
        assert len(run.measurements) == 1
        measurement = run.measurements[0]
        assert measurement.status == "TIMEOUT"
        assert measurement.addresses == []
        # 3 attempts (retries=2) plus the first attempt's hedge: the
        # policy ceiling alone would claim 3.
        assert measurement.attempts == 4
        assert run.retries.attempts == 4
        assert run.retries.answered == 0

    def test_attempts_are_per_lookup_not_cumulative(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=1, timeout_ms=50.0)
        run = measure_deployment_run(testbed, 2, warmup=0,
                                     stub=testbed.ue.stub(policy))
        assert [m.attempts for m in run.measurements] == [2, 2]
        assert run.retries.attempts == 4
        assert run.retries.mean_attempts == 2.0

    def test_timeouts_seen_matches_transmissions(self):
        testbed = _blackholed_testbed()
        policy = RetryPolicy(retries=2, timeout_ms=100.0,
                             hedge_after_ms=10.0)
        run = measure_deployment_run(testbed, 1, warmup=0,
                                     stub=testbed.ue.stub(policy))
        # Every transmission burned a timeout (hedge included).
        assert run.retries.timeouts_seen >= run.measurements[0].attempts - 1


class TestOnlyLookupFailuresAreData:
    def test_programming_error_in_the_client_fails_the_run(self):
        # A TIMEOUT row is for what a lookup is documented to raise
        # (QueryTimeout, WireFormatError); anything else is a bug and
        # must surface as one, not be scored as an unavailable resolver.
        testbed = build_testbed("mec-ldns-mec-cdns", seed=0)

        class BrokenStub(StubResolver):
            def query(self, *args, **kwargs):
                raise RuntimeError("bug in the client")
                yield  # pragma: no cover - generator marker

        stub = BrokenStub(testbed.network, testbed.ue.host, testbed.ue.dns)
        with pytest.raises(ProcessFailed) as excinfo:
            measure_deployment_run(testbed, 1, warmup=0, stub=stub)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
