"""Whole-stack telemetry tests: parity with the packet tap and the
zero-perturbation guarantee.

The two load-bearing claims of the subsystem:

* The span-based Figure 3 wireless/resolver split must agree with the
  packet-tap method (``measure.runner._wireless_portion``) — both
  observe the same simulated instants, so they agree to the float.
* Attaching telemetry must not change the simulation at all: the
  resilience experiment's byte-for-byte replay digest is identical with
  telemetry off and on.
"""

import pytest

from repro import telemetry
from repro.core.deployments import build_testbed
from repro.dnswire.name import Name
from repro.measure.runner import measure_deployment_queries


def spans_for(tracer, trace_id):
    return [span for span in tracer.finished if span.trace_id == trace_id]


def wireless_resolver_split(spans, gateway_host, started_ms, finished_ms):
    """``(wireless_ms, resolver_ms, crossings)`` of one lookup, from spans.

    The span-world mirror of ``measure.runner._wireless_portion``: a
    crossing is the end of a ``net/transit`` span arriving at the gateway
    inside the lookup; wireless time is (first crossing - start) +
    (finish - last crossing), the rest is the resolver side.
    """
    crossings = [span.end_ms for span in spans
                 if (span.name, span.category) == ("transit", "net")
                 and span.attrs.get("to") == gateway_host
                 and started_ms <= span.end_ms <= finished_ms]
    total = finished_ms - started_ms
    if not crossings:
        return 0.0, total, 0
    wireless = (max(min(crossings) - started_ms, 0.0)
                + max(finished_ms - max(crossings), 0.0))
    return wireless, max(total - wireless, 0.0), len(crossings)


@pytest.fixture(autouse=True)
def no_leaked_default():
    """Every test starts and ends without an ambient default telemetry."""
    telemetry.clear_default()
    yield
    telemetry.clear_default()


def measured_run(deployment, count=4, seed=7):
    """Run a measured deployment with telemetry attached; return both."""
    testbed = build_testbed(deployment, seed=seed)
    tel = telemetry.Telemetry().attach(testbed.network)
    measurements = measure_deployment_queries(testbed, count)
    return testbed, tel, measurements


class TestSpanTapParity:
    @pytest.mark.parametrize("deployment", [
        "mec-ldns-mec-cdns",
        "mec-ldns-wan-cdns",
        "google-dns",
    ])
    def test_split_matches_packet_tap(self, deployment):
        testbed, tel, measurements = measured_run(deployment)
        assert measurements
        for m in measurements:
            assert m.trace_id is not None
            wireless_ms, resolver_ms, crossings = wireless_resolver_split(
                spans_for(tel.tracer, m.trace_id), testbed.gateway_host,
                m.started_at, m.started_at + m.latency_ms)
            assert crossings >= 2  # query out, answer back
            assert wireless_ms == pytest.approx(m.wireless_ms, abs=1e-9)
            assert resolver_ms == pytest.approx(m.resolver_ms, abs=1e-9)

    def test_trace_covers_whole_lookup(self):
        _, tel, measurements = measured_run("mec-ldns-mec-cdns")
        for m in measurements:
            spans = spans_for(tel.tracer, m.trace_id)
            names = {span.name for span in spans}
            # The trace must walk the whole stack: driver, stub,
            # network hops, and the serving DNS.
            assert "lookup" in names
            assert "stub.query" in names
            assert "stub.attempt" in names
            assert "transit" in names
            assert "dns.serve" in names

    def test_each_lookup_is_its_own_trace(self):
        _, tel, measurements = measured_run("mec-ldns-mec-cdns")
        trace_ids = [m.trace_id for m in measurements]
        assert len(set(trace_ids)) == len(trace_ids)

    def test_metrics_observed_across_layers(self):
        _, tel, _ = measured_run("mec-ldns-mec-cdns")
        observed = {instrument.name: list(instrument.samples())
                    for instrument in tel.metrics.instruments()}
        for name in ("repro_stub_lookups_total", "repro_dns_queries_total",
                     "repro_net_datagrams_total", "repro_lookup_latency_ms"):
            assert observed.get(name), name


class TestZeroPerturbation:
    def test_replay_digest_identical_with_telemetry_on(self):
        from repro.experiments.resilience import _crash_cell

        def run_digest():
            _, _, digest = _crash_cell("mec-ldns-mec-cdns", "resilient",
                                       queries=5, seed=3)
            return digest

        baseline = run_digest()
        tel = telemetry.Telemetry()
        telemetry.set_default(tel)
        try:
            instrumented = run_digest()
        finally:
            telemetry.clear_default()
        assert instrumented == baseline
        # The comparison must not be vacuous: telemetry really observed
        # the instrumented run.
        assert len(tel.tracer.finished) > 0
        assert len(tel.metrics) > 0

    def test_measurements_identical_with_telemetry_on(self):
        plain = measure_deployment_queries(
            build_testbed("mec-ldns-mec-cdns", seed=11), 4)
        _, _, traced = measured_run("mec-ldns-mec-cdns", count=4, seed=11)
        for before, after in zip(plain, traced):
            assert after.latency_ms == before.latency_ms
            assert after.wireless_ms == before.wireless_ms
            assert after.addresses == before.addresses
            assert after.started_at == before.started_at

    @pytest.mark.parametrize("deployment", ["mec-ldns-mec-cdns", "lan-ldns"])
    def test_non_ascii_qname_served_alike_with_telemetry_on(self, deployment):
        # A wire label may hold any octet.  Rendering one for the serve
        # span's qname attribute used to raise inside DnsServer._serve,
        # so the reply existed only while nobody was watching.
        qname = Name.from_labels(
            [b"vid\xa7eo", b"demo1", b"mycdn", b"ciab", b"test"])

        def lookup():
            testbed = build_testbed(deployment, seed=3)
            first_hop = testbed.network.host_for_ip(
                testbed.ue.dns.ip).socket_on_port(testbed.ue.dns.port)
            server = first_hop.on_datagram.__self__
            results = []

            def driver():
                results.append((yield from testbed.ue.stub().query(qname)))

            testbed.sim.spawn(driver())
            testbed.sim.run()
            return results[0], server

        plain, plain_server = lookup()
        tel = telemetry.Telemetry()
        telemetry.set_default(tel)
        try:
            traced, traced_server = lookup()
        finally:
            telemetry.clear_default()
        assert traced.status == plain.status
        assert traced.query_time_ms == plain.query_time_ms
        assert plain_server.responses_sent > 0
        assert traced_server.responses_sent == plain_server.responses_sent
        assert any(span.attrs.get("qname") == qname.to_text()
                   for span in tel.tracer.finished
                   if span.name == "dns.serve")
