"""Tests for the mobile network substrate."""

import statistics

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, SOA, NS
from repro.mobile.profiles import (CELLULAR_5G, CELLULAR_LTE, PROFILES,
                                   WIFI_HOME, WIRED_CAMPUS)
from repro.mobile.core import EvolvedPacketCore
from repro.mobile.handoff import HandoffController
from repro.mobile.nat import NatMiddlebox, is_private
from repro.mobile.ue import UserEquipment
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.packet import Datagram
from repro.resolver.authoritative import AuthoritativeServer


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def make_zone():
    zone = Zone(Name("cdn.test"))
    zone.add(rr("cdn.test", RecordType.SOA,
                SOA(Name("ns.cdn.test"), Name("admin.cdn.test"),
                    1, 2, 3, 4, 60)))
    zone.add(rr("cdn.test", RecordType.NS, NS(Name("ns.cdn.test"))))
    zone.add(rr("video.cdn.test", RecordType.A, A("203.0.113.99")))
    return zone


class MobileScenario:
    """UE -> eNB -> S-GW -> P-GW(NAT) -> internet DNS server."""

    def __init__(self, profile=CELLULAR_LTE, seed=3):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.epc = EvolvedPacketCore(
            self.net, "lte", profile,
            sgw_ip="10.40.0.2", pgw_ip="10.40.0.1",
            public_ips=["198.51.100.1", "198.51.100.2"])
        self.cell_a = self.epc.add_base_station("enb-a", "10.40.1.1")
        self.cell_b = self.epc.add_base_station(
            "enb-b", "10.40.1.2", mec_dns=Endpoint("10.96.0.10", 53))
        self.net.add_host("dns", "203.0.113.53")
        self.net.add_link(self.epc.pgw.name, "dns", Constant(15))
        self.dns = AuthoritativeServer(self.net, self.net.host("dns"),
                                       [make_zone()])
        self.ue = UserEquipment(self.net, "ue1", "10.45.0.2",
                                default_dns=Endpoint("203.0.113.53", 53))
        self.cell_a.attach(self.ue)

    def query(self, name="video.cdn.test"):
        stub = self.ue.stub()
        future = self.sim.spawn(stub.query(Name(name)))
        return self.sim.run_until_resolved(future)


class TestProfiles:
    def test_profile_registry(self):
        assert set(PROFILES) == {"wired-campus", "wifi-home",
                                 "cellular-mobile", "cellular-5g"}

    def test_latency_ordering(self):
        def one_way(profile):
            return profile.radio.mean + profile.access_backhaul.mean
        assert one_way(WIRED_CAMPUS) < one_way(WIFI_HOME)
        assert one_way(WIFI_HOME) < one_way(CELLULAR_LTE)
        assert one_way(CELLULAR_5G) < one_way(CELLULAR_LTE)

    def test_lte_radio_near_10ms_one_way(self):
        import random
        rng = random.Random(0)
        samples = [CELLULAR_LTE.radio.sample(rng) for _ in range(4000)]
        assert 9 <= statistics.median(samples) <= 16

    def test_cellular_variance_exceeds_wired(self):
        import random
        rng = random.Random(0)
        lte = [CELLULAR_LTE.radio.sample(rng) for _ in range(2000)]
        wired = [WIRED_CAMPUS.radio.sample(rng) for _ in range(2000)]
        assert statistics.pstdev(lte) > 10 * (statistics.pstdev(wired) + 0.01)


class TestNat:
    def test_is_private(self):
        assert is_private("10.1.2.3")
        assert is_private("192.168.0.5")
        assert is_private("172.16.9.9")
        assert not is_private("8.8.8.8")

    def test_dns_server_sees_public_gateway_ip(self):
        scenario = MobileScenario()
        seen = []
        original = scenario.dns.handle_query

        def spy(query, client, trace):
            seen.append(client.ip)
            return original(query, client, trace)

        scenario.dns.handle_query = spy
        result = scenario.query()
        assert result.addresses == ["203.0.113.99"]
        assert seen[0].startswith("198.51.100.")
        assert seen[0] != "10.45.0.2"

    def test_flows_spread_across_public_pool(self):
        scenario = MobileScenario()
        nat = scenario.epc.nat
        used_ips = set()
        for index in range(4):
            private = Endpoint("10.45.0.2", 50000 + index)
            datagram = Datagram(private, Endpoint("203.0.113.53", 53), b"x")
            processed = nat.process(datagram, scenario.epc.pgw)
            used_ips.add(processed.src.ip)
        assert used_ips == {"198.51.100.1", "198.51.100.2"}

    def test_same_flow_keeps_mapping(self):
        nat = NatMiddlebox(["198.51.100.1"])
        host = type("H", (), {"owns": lambda self, ip: False})()
        private = Endpoint("10.45.0.2", 50000)
        first = nat.process(Datagram(private, Endpoint("1.2.3.4", 53), b"a"), host)
        second = nat.process(Datagram(private, Endpoint("1.2.3.4", 53), b"b"), host)
        assert first.src == second.src

    def test_intra_network_traffic_not_translated(self):
        nat = NatMiddlebox(["198.51.100.1"])
        host = type("H", (), {"owns": lambda self, ip: False})()
        datagram = Datagram(Endpoint("10.45.0.2", 50000),
                            Endpoint("10.96.0.10", 53), b"q")
        processed = nat.process(datagram, host)
        assert processed.src.ip == "10.45.0.2"  # MEC DNS sees the real client

    def test_empty_pool_rejected(self):
        from repro.errors import AddressError
        with pytest.raises(AddressError):
            NatMiddlebox([])


class TestEndToEnd:
    def test_query_roundtrip_over_lte(self):
        scenario = MobileScenario()
        result = scenario.query()
        assert result.addresses == ["203.0.113.99"]
        # Two radio legs (~10ms each) + backhaul + 2*15ms WAN: well over 40ms.
        assert result.query_time_ms > 40

    def test_5g_much_faster_than_lte(self):
        lte_times = [MobileScenario(CELLULAR_LTE, seed=s).query().query_time_ms
                     for s in range(5)]
        nr_times = [MobileScenario(CELLULAR_5G, seed=s).query().query_time_ms
                    for s in range(5)]
        assert statistics.fmean(nr_times) < statistics.fmean(lte_times) - 15


class TestHandoff:
    def test_handoff_moves_radio_link(self):
        scenario = MobileScenario()
        controller = HandoffController(scenario.net)
        record = controller.handoff(scenario.ue, scenario.cell_b)
        assert record.source == "enb-a"
        assert record.target == "enb-b"
        assert scenario.ue.base_station is scenario.cell_b
        # Old radio link is gone.
        from repro.errors import RoutingError
        with pytest.raises(RoutingError):
            scenario.net.link_between("ue1", "enb-a")

    def test_handoff_switches_dns_to_mec(self):
        scenario = MobileScenario()
        assert scenario.ue.dns == Endpoint("203.0.113.53", 53)
        controller = HandoffController(scenario.net)
        record = controller.handoff(scenario.ue, scenario.cell_b)
        assert record.dns_switched
        assert scenario.ue.dns == Endpoint("10.96.0.10", 53)
        assert scenario.ue.dns_switches == 1

    def test_handoff_requires_attachment(self):
        scenario = MobileScenario()
        other = UserEquipment(scenario.net, "ue2", "10.45.0.3")
        controller = HandoffController(scenario.net)
        with pytest.raises(ValueError):
            controller.handoff(other, scenario.cell_b)

    def test_handoff_to_same_cell_rejected(self):
        scenario = MobileScenario()
        controller = HandoffController(scenario.net)
        with pytest.raises(ValueError):
            controller.handoff(scenario.ue, scenario.cell_a)

    def test_queries_work_after_handoff(self):
        scenario = MobileScenario()
        # Give the MEC DNS endpoint a real server: place it on the S-GW LAN.
        scenario.net.add_host("mec-dns", "10.96.0.10")
        scenario.net.add_link("mec-dns", scenario.epc.sgw.name, Constant(0.5))
        AuthoritativeServer(scenario.net, scenario.net.host("mec-dns"),
                            [make_zone()])
        HandoffController(scenario.net).handoff(scenario.ue, scenario.cell_b)
        result = scenario.query()
        assert result.addresses == ["203.0.113.99"]
        assert result.server == Endpoint("10.96.0.10", 53)
