"""Tests for the measurement driver's failure handling.

A lookup whose every attempt fails is data (a ``TIMEOUT`` measurement);
anything else the client raises is a bug and fails the run.
"""

import pytest

from repro.core.deployments import build_testbed
from repro.measure.runner import measure_deployment_queries
from repro.netsim.engine import ProcessFailed
from repro.resolver.stub import StubResolver


class TestOnlyLookupFailuresAreData:
    def test_timeouts_are_measurements(self):
        testbed = build_testbed("mec-ldns-mec-cdns", seed=0)
        testbed.network.partition([testbed.ue.host.name])
        measurements = measure_deployment_queries(testbed, 1)
        assert [(m.status, m.addresses) for m in measurements] == \
            [("TIMEOUT", [])]

    def test_programming_error_in_the_client_fails_the_run(self,
                                                           monkeypatch):
        # A TIMEOUT row is for what a lookup is documented to raise
        # (QueryTimeout, WireFormatError); anything else is a bug and
        # must surface as one, not be scored as an unavailable resolver.
        testbed = build_testbed("mec-ldns-mec-cdns", seed=0)

        class BrokenStub(StubResolver):
            def query(self, *args, **kwargs):
                raise RuntimeError("bug in the client")
                yield  # pragma: no cover - generator marker

        stub = BrokenStub(testbed.network, testbed.ue.host, testbed.ue.dns)
        monkeypatch.setattr(testbed.ue, "stub", lambda: stub)
        with pytest.raises(ProcessFailed) as excinfo:
            measure_deployment_queries(testbed, 1)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
