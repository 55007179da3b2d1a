"""HandoffController telemetry: counters, events, and lookup attribution.

The churn experiment splits post-churn failures between "the UE moved"
and "the zone data was stale"; that attribution rests on the controller
emitting a handoff event/counter pair and keeping faithful counts of
lookups reported after the handoff.
"""

from repro import telemetry
from repro.mobile.profiles import CELLULAR_LTE
from repro.mobile.core import EvolvedPacketCore
from repro.mobile.handoff import HandoffController
from repro.mobile.ue import UserEquipment
from repro.netsim import Endpoint, Network, RandomStreams, Simulator


class HandoffScenario:
    """UE attached to one of two cells, with telemetry observing."""

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(11))
        self.tel = telemetry.Telemetry().attach(self.net)
        epc = EvolvedPacketCore(
            self.net, "lte", CELLULAR_LTE,
            sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
            public_ips=["198.51.100.1"])
        self.cell_a = epc.add_base_station("enb-a", "10.40.1.1")
        self.cell_b = epc.add_base_station(
            "enb-b", "10.40.1.2", mec_dns=Endpoint("10.96.0.10", 53))
        self.ue = UserEquipment(self.net, "ue1", "10.45.0.2",
                                default_dns=Endpoint("203.0.113.53", 53))
        self.cell_a.attach(self.ue)
        self.controller = HandoffController(self.net)


class TestHandoffTelemetry:
    def test_handoff_counter_carries_target_and_dns_labels(self):
        scenario = HandoffScenario()
        scenario.controller.handoff(scenario.ue, scenario.cell_b)
        counter = scenario.tel.metrics.counter("repro_handoffs_total")
        assert dict(counter.samples()) == {
            (("dns_switched", "True"), ("target", "enb-b")): 1.0}

    def test_handoff_emits_instant_event(self):
        scenario = HandoffScenario()
        scenario.controller.handoff(scenario.ue, scenario.cell_b)
        events = [span for span in scenario.tel.tracer.finished
                  if span.name == "handoff"]
        assert len(events) == 1
        event = events[0]
        assert event.start_ms == event.end_ms  # an instant, not a span
        assert event.attrs["ue"] == "ue1"
        assert event.attrs["source"] == "enb-a"
        assert event.attrs["target"] == "enb-b"
        assert event.attrs["dns_switched"] is True

    def test_post_handoff_lookup_attribution(self):
        scenario = HandoffScenario()
        scenario.controller.handoff(scenario.ue, scenario.cell_b)
        for mislocalized in (False, True, True):
            scenario.controller.note_post_handoff_lookup(
                scenario.ue, mislocalized)
        assert scenario.controller.post_handoff_lookups == 3
        assert scenario.controller.mislocalized_after_handoff == 2
        counter = scenario.tel.metrics.counter(
            "repro_post_handoff_lookups_total")
        assert dict(counter.samples()) == {
            (("mislocalized", "False"), ("ue", "ue1")): 1.0,
            (("mislocalized", "True"), ("ue", "ue1")): 2.0}

    def test_unobserved_controller_still_counts(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(12))  # no telemetry attached
        epc = EvolvedPacketCore(
            net, "lte", CELLULAR_LTE, sgw_ip="10.40.0.2",
            pgw_ip="10.40.0.1", public_ips=["198.51.100.1"])
        cell_a = epc.add_base_station("enb-a", "10.40.1.1")
        cell_b = epc.add_base_station("enb-b", "10.40.1.2")
        ue = UserEquipment(net, "ue1", "10.45.0.2")
        cell_a.attach(ue)
        controller = HandoffController(net)
        controller.handoff(ue, cell_b)
        controller.note_post_handoff_lookup(ue, True)
        assert controller.handoffs == 1
        assert controller.mislocalized_after_handoff == 1
