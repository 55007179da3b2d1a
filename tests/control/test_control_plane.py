"""Unit tests for the dynamic control plane (``repro.control``).

Registry versioning, NOTIFY/IXFR propagation over a real testbed,
router-view application, the staleness monitor's accounting, and the
determinism of the whole assembly under faults.
"""

import pytest

from repro.control import (ChurnEvent, ControlPlane,
                           StalenessMonitor, ZoneRegistry,
                           default_schedule)
from repro.control.churn import ROLLOUT, SCALE
from repro.core.deployments import build_testbed
from repro.faults import FaultPlan, inject
from repro.netsim import Network, RandomStreams, Simulator


def build_plane(seed=7, journal_depth=16):
    testbed = build_testbed("mec-ldns-mec-cdns", seed=seed)
    plane = ControlPlane(testbed, journal_depth=journal_depth)
    return testbed, plane


class TestZoneRegistry:
    def make_registry(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(5))
        from repro.dnswire import Name
        registry = ZoneRegistry(net, Name("mycdn.ciab.test"),
                                ["10.233.64.1", "10.233.64.2"])
        return sim, registry

    def test_initial_version_is_serial_one(self):
        _, registry = self.make_registry()
        assert registry.serial == 1
        assert registry.addresses == ("10.233.64.1", "10.233.64.2")
        assert registry.updates == []
        assert ZoneRegistry.addresses_in(
            registry.zone, registry.owner) == registry.addresses

    def test_update_bumps_serial_and_diffs(self):
        sim, registry = self.make_registry()
        sim.run(until=250.0)
        update = registry.update(["10.233.64.2", "10.233.64.3"])
        assert update is not None
        assert update.serial == registry.serial == 2
        assert update.time == 250.0
        assert update.added == ("10.233.64.3",)
        assert update.removed == ("10.233.64.1",)
        assert registry.journal.deltas_since(registry.origin, 1)

    def test_noop_update_publishes_nothing(self):
        _, registry = self.make_registry()
        seen = []
        registry.subscribe(lambda update, zone: seen.append(update))
        assert registry.update(["10.233.64.2", "10.233.64.1"]) is None
        assert registry.serial == 1 and seen == []

    def test_subscribers_fire_synchronously_with_the_new_zone(self):
        _, registry = self.make_registry()
        seen = []
        registry.subscribe(lambda update, zone: seen.append(
            (update.serial, ZoneRegistry.addresses_in(zone,
                                                      registry.owner))))
        registry.update(["10.233.64.9"])
        assert seen == [(2, ("10.233.64.9",))]


class TestPropagation:
    def test_clean_update_reaches_the_router_quickly(self):
        testbed, plane = build_plane()
        driver = plane.add_churn((ChurnEvent(1000.0, SCALE, 3),))
        testbed.sim.run(until=3000.0)
        record = plane.coordinator.records[2]
        assert record.applied_at is not None
        assert record.delay_ms < 500.0
        assert not plane.coordinator.in_flight()
        assert plane.router_applies == 1
        # The router's edge zone now routes over the propagated set.
        ring_caches = {cache.endpoint.ip
                       for cache in plane.site.cdns.zones[0].caches}
        assert ring_caches == set(driver.live)

    def test_router_routes_on_propagated_view_not_ground_truth(self):
        testbed, plane = build_plane()
        plane.add_churn((ChurnEvent(1000.0, SCALE, 3),))
        # Stop just after the churn event but before NOTIFY lands.
        testbed.sim.run(until=1010.0)
        assert plane.coordinator.in_flight()
        assert len(set(plane.driver.live)) == 3  # ground truth moved on
        # ... but the routing ring is still the one built pre-churn: no
        # apply has happened, so the router has not been rebuilt.
        assert plane.site.cdns.zone_updates == 0
        zone_name = f"{plane.site.name}-edge"
        ring_caches = {cache.endpoint.ip for cache
                       in plane.site.cdns._rings[zone_name].members()}
        assert ring_caches != set(plane.driver.live)

    def test_partition_delays_apply_until_heal(self):
        testbed, plane = build_plane(journal_depth=1)
        plane.add_churn((ChurnEvent(1000.0, SCALE, 3),
                         ChurnEvent(1400.0, ROLLOUT)))
        group = [plane.secondary_host_name]
        for node in testbed.mec_site.orchestrator.nodes:
            group.append(node.host.name)
            group.extend(pod.host.name for pod in node.pods)
        plan = FaultPlan().partition(sorted(group), 900.0, 4000.0)
        inject(testbed.network, plan)
        testbed.sim.run(until=10000.0)
        records = plane.coordinator.records
        assert all(r.applied_at is not None for r in records.values())
        assert max(r.delay_ms for r in records.values()) > 2000.0
        # Two updates through a depth-1 journal: recovery is a full AXFR.
        assert plane.primary.ixfr_axfr_fallbacks >= 1


class TestChurnDriver:
    def test_scale_and_rollout_update_live_set(self):
        testbed, plane = build_plane()
        driver = plane.add_churn(default_schedule())
        before = set(driver.live)
        testbed.sim.run(until=7000.0)
        assert driver.events_applied == 3
        assert len(driver.live) == 2          # final scale-down target
        assert not (set(driver.live) & before)  # rollout replaced all
        assert plane.registry.serial == 4     # one bump per event
        assert len(driver.timeline) == 3

    def test_rolled_pods_stay_online(self):
        testbed, plane = build_plane()
        driver = plane.add_churn((ChurnEvent(500.0, ROLLOUT),))
        originals = list(plane.site.caches[:2])
        testbed.sim.run(until=1000.0)
        # The rolled caches are deregistered but never crashed: only the
        # control plane can tell clients to stop using them.
        for cache in originals:
            assert cache.online
            assert cache.endpoint.ip not in driver.live

    def test_second_schedule_rejected(self):
        _, plane = build_plane()
        plane.add_churn(default_schedule())
        with pytest.raises(ValueError):
            plane.add_churn(default_schedule())


class TestStalenessMonitor:
    def make_monitor(self, live, in_window=False):
        sim = Simulator()
        net = Network(sim, RandomStreams(3))
        monitor = StalenessMonitor(net, live=lambda: live,
                                   in_window=lambda: in_window)
        return sim, monitor

    def test_mislocalization_against_live_set(self):
        _, monitor = self.make_monitor(["10.0.0.1"])
        assert not monitor.note_answer(10.0, ["10.0.0.1"])
        assert monitor.note_answer(20.0, ["10.0.0.9"])
        assert not monitor.note_answer(30.0, [])  # empty never mislocates
        assert monitor.lookups == 3
        assert monitor.answered == 2
        assert monitor.mislocalization_rate == 0.5

    def test_staleness_window_tracks_last_stale_answer(self):
        from repro.control.registry import ZoneUpdate
        _, monitor = self.make_monitor(["10.0.0.2"])
        monitor.note_update(ZoneUpdate(100.0, 2, ("10.0.0.2",),
                                       ("10.0.0.2",), ("10.0.0.1",)))
        monitor.note_answer(150.0, ["10.0.0.1"])   # stale: removed addr
        monitor.note_answer(400.0, ["10.0.0.1"])   # still stale, later
        monitor.note_answer(900.0, ["10.0.0.2"])   # fresh
        assert monitor.windows_ms() == [(2, 300.0)]
        assert monitor.max_staleness_ms == 300.0

    def test_in_window_accounting(self):
        _, monitor = self.make_monitor(["10.0.0.1"], in_window=True)
        monitor.note_answer(10.0, ["10.0.0.9"])
        assert monitor.lookups_in_window == 1
        assert monitor.mislocalized_in_window == 1


class TestDeterminism:
    def run_once(self, seed=11):
        testbed, plane = build_plane(seed=seed, journal_depth=1)
        plane.add_churn(default_schedule())
        plan = FaultPlan().brownout_host("cdn-origin", 800.0, 1200.0,
                                         5000.0)
        injector = inject(testbed.network, plan)
        testbed.sim.run(until=12000.0)
        return injector.timeline + plane.log()

    def test_same_seed_replays_byte_identical_logs(self):
        assert self.run_once(seed=11) == self.run_once(seed=11)

    def test_control_plane_requires_a_mec_site(self):
        testbed = build_testbed("lan-ldns", seed=3)
        with pytest.raises(ValueError):
            ControlPlane(testbed._replace(mec_site=None))
