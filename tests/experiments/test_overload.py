"""Tests for the overload experiment and the finite-capacity server model."""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord, make_query
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.experiments.overload import EXPERIMENT
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator, UdpSocket
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.stub import StubResolver


def make_zone():
    zone = Zone(Name("cdn.test"))
    zone.add(ResourceRecord(Name("cdn.test"), RecordType.SOA, 300,
                            SOA(Name("ns.cdn.test"), Name("a.cdn.test"),
                                1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("cdn.test"), RecordType.NS, 300,
                            NS(Name("ns.cdn.test"))))
    zone.add(ResourceRecord(Name("v.cdn.test"), RecordType.A, 300,
                            A("10.0.0.9")))
    return zone


class TestWorkerModel:
    def build(self, workers, max_queue=8, processing=5.0):
        sim = Simulator()
        net = Network(sim, RandomStreams(13))
        net.add_host("server", "10.0.0.53")
        net.add_host("client", "10.0.0.2")
        net.add_link("client", "server", Constant(1))
        server = AuthoritativeServer(net, net.host("server"), [make_zone()],
                                     processing_delay=Constant(processing),
                                     workers=workers, max_queue=max_queue)
        return sim, net, server

    def burst(self, sim, net, count):
        sock = UdpSocket(net.host("client"))
        for index in range(count):
            query = make_query(Name("v.cdn.test"), msg_id=index + 1)
            sock.send_to(query.to_wire(), Endpoint("10.0.0.53", 53))
        sim.run()
        return sock

    def test_unlimited_workers_by_default(self):
        sim, net, server = self.build(workers=None)
        self.burst(sim, net, 20)
        assert server.responses_sent == 20
        assert server.queries_dropped == 0

    def test_single_worker_serialises_service(self):
        sim, net, server = self.build(workers=1, max_queue=100)
        self.burst(sim, net, 5)
        # 5 queries x 5ms service, serialised: last finishes ~26ms in.
        assert server.responses_sent == 5
        assert sim.now >= 5 * 5
        assert server.peak_backlog == 4

    def test_queue_overflow_drops(self):
        sim, net, server = self.build(workers=1, max_queue=3)
        self.burst(sim, net, 10)
        assert server.queries_dropped == 6  # 1 served + 3 queued at t=0
        assert server.responses_sent == 4

    def test_queued_queries_eventually_answered(self):
        sim, net, server = self.build(workers=2, max_queue=50)
        self.burst(sim, net, 12)
        assert server.responses_sent == 12

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            self.build(workers=0)

    def test_queueing_visible_in_client_latency(self):
        sim, net, server = self.build(workers=1, max_queue=100,
                                      processing=4.0)
        stub = StubResolver(net, net.host("client"),
                            Endpoint("10.0.0.53", 53))
        # Saturate with a background burst, then measure a legit query.
        sock = UdpSocket(net.host("client"))
        for index in range(10):
            sock.send_to(make_query(Name("v.cdn.test"),
                                    msg_id=index + 100).to_wire(),
                         Endpoint("10.0.0.53", 53))
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name("v.cdn.test"))))
        # It waited behind ~10 x 4ms of service time.
        assert result.query_time_ms > 30


@pytest.fixture(scope="module")
def overload_result():
    return EXPERIMENT.run_serial(attack_qps=1500, seed=0)


class TestOverloadExperiment:
    def test_shape_claims_hold(self, overload_result):
        assert EXPERIMENT.check_shape(overload_result) == []

    def test_flood_degrades_unmitigated_service(self, overload_result):
        row = overload_result.row("none")
        assert row.attack_success_rate < 0.8
        assert row.queries_dropped_at_mec > 100

    def test_mitigation_preserves_availability(self, overload_result):
        row = overload_result.row("switch-to-provider")
        assert row.attack_success_rate > 0.95
        assert row.mitigation_activations >= 1

    def test_mitigation_costs_latency(self, overload_result):
        row = overload_result.row("switch-to-provider")
        assert row.attack_p95_ms > 2 * row.baseline_p95_ms

    def test_render(self, overload_result):
        text = overload_result.render()
        assert "answered during attack" in text
        assert "switch-to-provider" in text

    def test_row_lookup_unknown(self, overload_result):
        with pytest.raises(KeyError):
            overload_result.row("rate-limit")
