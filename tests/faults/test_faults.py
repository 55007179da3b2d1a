"""Tests for the fault-injection subsystem (plans, injector, burst loss)."""

import random

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan, GilbertElliott, inject
from repro.faults.plan import FaultEvent
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver import AuthoritativeServer, RetryPolicy, StubResolver


def build_zone():
    zone = Zone(Name("example.com"))
    zone.add(ResourceRecord(Name("example.com"), RecordType.SOA, 300,
                            SOA(Name("ns.example.com"),
                                Name("a.example.com"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("example.com"), RecordType.NS, 300,
                            NS(Name("ns.example.com"))))
    zone.add(ResourceRecord(Name("www.example.com"), RecordType.A, 300,
                            A("198.18.0.9")))
    return zone


class World:
    """Client -- server over one 2 ms link, with a fault plan installed."""

    def __init__(self, plan=None, seed=11):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.net.add_host("client", "10.0.0.2")
        self.net.add_host("server", "10.0.0.53")
        self.net.add_link("client", "server", Constant(2))
        server = AuthoritativeServer(self.net, self.net.host("server"),
                                     [build_zone()])
        self.stub = StubResolver(self.net, self.net.host("client"),
                                 server.endpoint,
                                 policy=RetryPolicy(retries=0, timeout_ms=100))
        self.injector = inject(self.net, plan) if plan is not None else None

    def ask(self):
        return self.sim.run_until_resolved(self.sim.spawn(
            self.stub.query(Name("www.example.com"))))

    def ask_fails(self):
        with pytest.raises(ProcessFailed):
            self.ask()


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(0.0, 0.5)
        with pytest.raises(ValueError):
            GilbertElliott(0.5, 1.5)
        with pytest.raises(ValueError):
            GilbertElliott(0.5, 0.5, bad_loss=1.2)
        with pytest.raises(ValueError):
            GilbertElliott(0.5, 0.5, good_loss=-0.1)

    def test_stationary_loss_formula(self):
        # The chain spends p_enter / (p_enter + p_exit) of its traversals
        # in the Bad state; the long-run loss is that share times bad_loss.
        model = GilbertElliott(0.1, 0.4, bad_loss=0.8, good_loss=0.0)
        rng = random.Random(3)
        for _ in range(50_000):
            model.lost(rng)
        assert model.losses / model.traversals == pytest.approx(
            0.1 / (0.1 + 0.4) * 0.8, abs=0.01)

    def test_good_state_with_zero_loss_never_drops(self):
        model = GilbertElliott(1e-9, 1.0, bad_loss=1.0, good_loss=0.0)
        rng = random.Random(3)
        assert not any(model.lost(rng) for _ in range(200))
        assert model.losses == 0

    def test_losses_cluster_into_bursts(self):
        model = GilbertElliott(0.05, 0.25, bad_loss=1.0, good_loss=0.0)
        rng = random.Random(7)
        outcomes = [model.lost(rng) for _ in range(5000)]
        assert model.bursts_entered > 10
        # Every loss happened in the bad state, so losses per burst must
        # roughly match the 1/p_exit mean burst length.
        per_burst = outcomes.count(True) / model.bursts_entered
        assert 2.0 < per_burst < 8.0  # mean is 4 traversals

    def test_deterministic_under_same_seed(self):
        runs = []
        for _ in range(2):
            model = GilbertElliott(0.1, 0.3, bad_loss=0.9)
            rng = random.Random(42)
            runs.append([model.lost(rng) for _ in range(500)])
        assert runs[0] == runs[1]


class TestFaultPlan:
    def test_events_sorted_and_paired(self):
        plan = (FaultPlan()
                .crash_host("b", 500, duration_ms=100)
                .burst_loss("x", "y", 10, duration_ms=50))
        kinds = [event.kind for event in plan.events]
        assert kinds == ["burst-on", "burst-off", "host-down", "host-up"]
        down, up = plan.events[2], plan.events[3]
        assert down.fault_id == up.fault_id
        assert up.at_ms == 600

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().crash_host("a", -1)
        with pytest.raises(ValueError):
            FaultPlan().brownout_host("a", 0, slow_ms=0)
        with pytest.raises(ValueError):
            FaultPlan().burst_loss("a", "b", 0, p_enter=0.0)

    def test_describe_is_stable(self):
        plan = FaultPlan().partition(["b", "a"], 5)
        assert plan.events[0].describe() == "partition-on partition {a,b}"


class TestFaultInjector:
    def test_crash_blacks_out_then_restarts(self):
        world = World(FaultPlan().crash_host("server", 0, duration_ms=500))
        world.ask_fails()
        world.sim.run(until=600)
        assert world.ask().status == "NOERROR"
        assert world.injector.events_fired == 2

    def test_brownout_delays_answers(self):
        healthy = World()
        baseline = healthy.ask().query_time_ms
        world = World(FaultPlan().brownout_host("server", 0, slow_ms=50))
        slowed = world.ask().query_time_ms
        assert slowed == pytest.approx(baseline + 50)

    def test_burst_installs_and_removes_model(self):
        plan = FaultPlan().burst_loss("client", "server", 0,
                                      duration_ms=1000,
                                      p_enter=0.9, p_exit=0.05,
                                      bad_loss=1.0)
        world = World(plan)
        link = world.net.link_between("client", "server")
        world.sim.run(until=1)
        model = link.loss_model
        assert model is not None
        world.ask_fails()  # near-certain loss swallows the query
        assert model.traversals > 0
        world.sim.run(until=1100)
        assert link.loss_model is None
        assert world.ask().status == "NOERROR"

    def test_partition_cuts_and_heals(self):
        world = World(FaultPlan().partition(["server"], 0, duration_ms=400))
        world.ask_fails()
        assert world.net.is_partitioned("client", "server")
        world.sim.run(until=500)
        assert not world.net.is_partitioned("client", "server")
        assert world.ask().status == "NOERROR"

    def test_timeline_replays_byte_for_byte(self):
        def one_run():
            plan = (FaultPlan()
                    .crash_host("server", 50, duration_ms=100)
                    .burst_loss("client", "server", 200, duration_ms=100))
            world = World(plan, seed=23)
            world.sim.run(until=1000)
            return list(world.injector.timeline)

        assert one_run() == one_run()
        assert len(one_run()) == 4

    def test_double_install_rejected(self):
        world = World()
        injector = inject(world.net, FaultPlan().crash_host("server", 0))
        with pytest.raises(SimulationError):
            injector.install()

    def test_unmatched_partition_off_rejected(self):
        world = World()
        injector = FaultInjector(world.net, FaultPlan())
        event = FaultEvent(0, "partition-off", "partition {x}", 9, {})
        with pytest.raises(SimulationError):
            injector._apply_partition_off(event)

    def test_idle_network_untouched(self):
        # No plan: the hooks stay at their no-fault defaults and a run
        # draws exactly the same randomness as before the subsystem
        # existed (zero-cost-when-idle).
        world = World()
        link = world.net.link_between("client", "server")
        assert link.loss_model is None
        assert not world.net.host("server").down
        assert world.net.host("server").brownout_ms == 0.0
        assert world.ask().status == "NOERROR"
