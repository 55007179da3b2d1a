"""Tests for the load generator and capacity-curve experiment."""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.experiments.capacity import EXPERIMENT
from repro.measure.loadgen import LoadGenerator, run_load
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver.authoritative import AuthoritativeServer


def build_server(workers=None, processing=0.5, max_queue=64):
    sim = Simulator()
    net = Network(sim, RandomStreams(7))
    net.add_host("dns", "10.0.0.53")
    net.add_host("clients", "10.0.0.2")
    net.add_link("clients", "dns", Constant(1))
    zone = Zone(Name("cdn.test"))
    zone.add(ResourceRecord(Name("cdn.test"), RecordType.SOA, 300,
                            SOA(Name("ns.cdn.test"), Name("a.cdn.test"),
                                1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("cdn.test"), RecordType.NS, 300,
                            NS(Name("ns.cdn.test"))))
    zone.add(ResourceRecord(Name("v.cdn.test"), RecordType.A, 300,
                            A("10.0.0.9")))
    AuthoritativeServer(net, net.host("dns"), [zone],
                        processing_delay=Constant(processing),
                        workers=workers, max_queue=max_queue)
    return net


class TestLoadGenerator:
    def test_light_load_all_answered(self):
        net = build_server()
        result = run_load(net, net.host("clients"),
                          Endpoint("10.0.0.53", 53), Name("v.cdn.test"),
                          offered_qps=100, duration_ms=500)
        assert result.loss_rate == 0.0
        assert result.sent == result.answered == 50
        assert result.goodput_qps == pytest.approx(100, rel=0.05)
        assert result.p50_ms == pytest.approx(2.5, abs=0.5)

    def test_overload_shows_loss_and_queueing(self):
        net = build_server(workers=1, processing=2.0, max_queue=10)
        # Capacity 500 qps; offer 2000.
        result = run_load(net, net.host("clients"),
                          Endpoint("10.0.0.53", 53), Name("v.cdn.test"),
                          offered_qps=2000, duration_ms=500,
                          reply_timeout_ms=500)
        assert result.loss_rate > 0.4
        assert result.p95_ms > 15

    def test_invalid_parameters_rejected(self):
        # run() is a process; validation errors surface as ProcessFailed
        # with the ValueError as the cause.
        from repro.netsim.engine import ProcessFailed
        net = build_server()
        generator = LoadGenerator(net, net.host("clients"),
                                  Endpoint("10.0.0.53", 53),
                                  Name("v.cdn.test"))
        for bad_args in ((0, 100), (10, 0)):
            with pytest.raises(ProcessFailed) as excinfo:
                net.sim.run_until_resolved(
                    net.sim.spawn(generator.run(*bad_args)))
            assert isinstance(excinfo.value.__cause__, ValueError)

    def test_result_string(self):
        net = build_server()
        result = run_load(net, net.host("clients"),
                          Endpoint("10.0.0.53", 53), Name("v.cdn.test"),
                          offered_qps=50, duration_ms=200)
        text = str(result)
        assert "goodput" in text and "p95" in text


@pytest.fixture(scope="module")
def curve():
    return EXPERIMENT.run_serial(rates=(400.0, 1200.0, 2200.0, 3500.0),
                                 duration_ms=800, seed=0)


class TestCapacityCurve:
    def test_shape_claims_hold(self, curve):
        assert EXPERIMENT.check_shape(curve) == []

    def test_goodput_plateaus_at_capacity(self, curve):
        beyond = [point for point in curve.points
                  if point.offered_qps > curve.nominal_capacity_qps]
        for point in beyond:
            assert point.goodput_qps <= 1.15 * curve.nominal_capacity_qps

    def test_saturation_detected(self, curve):
        assert curve.saturation_qps == 2200

    def test_latency_flat_below_capacity(self, curve):
        below = [point for point in curve.points
                 if point.offered_qps < 0.75 * curve.nominal_capacity_qps]
        assert all(point.p95_ms < 5 for point in below)

    def test_render(self, curve):
        text = curve.render()
        assert "capacity curve" in text
        assert "saturation onset" in text
