"""Tests for the PacketTrace tcpdump-analog tap and its filters."""

from repro.mobile.nat import NatMiddlebox
from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.netsim.socket import UdpSocket
from repro.netsim.trace import PacketTrace


def three_hop_network():
    """client -- middle -- server, 1 ms per link."""
    sim = Simulator()
    net = Network(sim, RandomStreams(0))
    net.add_host("client", "10.0.0.1")
    net.add_host("middle", "10.0.0.2")
    net.add_host("server", "10.0.0.3")
    net.add_link("client", "middle", Constant(1.0))
    net.add_link("middle", "server", Constant(1.0))
    UdpSocket(net.host("server"), port=53)  # the listening endpoint
    return sim, net


def send_one(sim, net, payload=b"ping"):
    """Send one datagram client -> server and run the sim dry."""
    sock = UdpSocket(net.host("client"))
    sock.send_to(payload, Endpoint("10.0.0.3", 53))
    sim.run()
    sock.close()


class TestFilters:
    def test_unfiltered_sees_every_event(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        events = {record.event for record in trace.records}
        assert events == {"send", "forward", "deliver"}

    def test_host_filter_limits_to_one_host(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, host_filter="middle")
        send_one(sim, net)
        assert trace.records
        assert all(record.host == "middle" for record in trace.records)
        assert all(record.event == "forward" for record in trace.records)

    def test_event_filter_limits_to_one_kind(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, event_filter="deliver")
        send_one(sim, net)
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.event == "deliver"
        assert record.host == "server"

    def test_combined_filters(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, host_filter="server",
                            event_filter="forward")
        send_one(sim, net)
        assert trace.records == []  # the server only ever delivers

    def test_records_carry_packet_fields(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, event_filter="deliver")
        send_one(sim, net, payload=b"ping")
        record = trace.records[0]
        assert record.dst == "10.0.0.3:53"
        assert record.size > 0
        assert record.protocol == "udp"
        assert record.time == 2.0  # two 1 ms hops


class TestLifecycle:
    def test_clear_keeps_capturing(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        trace.clear()
        assert len(trace.records) == 0
        send_one(sim, net)
        assert len(trace.records) > 0

    def test_close_stops_capturing(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        seen = len(trace.records)
        trace.close()
        send_one(sim, net)
        assert len(trace.records) == seen


NAT_HOSTS = ("ue", "enb", "pgw", "wan", "server")


def nat_scenario(*host_filters):
    """ue -- enb -- pgw (NAT) -- wan -- server, traced once per filter.

    One echoed request (send, forwards through the NAT both ways,
    deliver), then one datagram each into a port nobody listens on, an
    address nobody owns and a dead link (a drop at the destination, at
    the sender and in transit).
    """
    sim = Simulator()
    net = Network(sim, RandomStreams(3))
    net.add_host("ue", "10.1.0.2")
    net.add_host("enb", "10.1.0.3")
    net.add_host("pgw", "10.1.0.1", "198.51.100.1")
    net.add_host("wan", "203.0.113.1")
    net.add_host("server", "203.0.113.10")
    net.add_link("ue", "enb", Constant(5.0))
    net.add_link("enb", "pgw", Constant(2.0))
    net.add_link("pgw", "wan", Constant(7.0))
    backbone = net.add_link("wan", "server", Constant(3.0))
    net.host("pgw").install_middlebox(NatMiddlebox(["198.51.100.1"]))
    traces = [PacketTrace(net, host_filter=name) for name in host_filters]
    server = UdpSocket(net.host("server"), port=53)
    server.on_datagram = lambda payload, src, sock: sock.send_to(b"r", src)
    client = UdpSocket(net.host("ue"))
    sim.run_until_resolved(
        client.request(b"q", Endpoint("203.0.113.10", 53), timeout=500))
    client.send_to(b"nobody-listens", Endpoint("203.0.113.10", 9))
    client.send_to(b"nobody-owns", Endpoint("192.0.2.9", 53))
    sim.run()
    backbone.down = True
    client.send_to(b"dead-link", Endpoint("203.0.113.10", 53))
    sim.run()
    return sim, net, traces


class TestHostFilterAppliedByTheNetwork:
    def test_filtered_trace_is_the_unfiltered_trace_filtered_afterwards(self):
        full_sim, _, (full,) = nat_scenario(None)
        kinds = set()
        for name in NAT_HOSTS:
            sim, _, (filtered,) = nat_scenario(name)
            expected = [record for record in full.records
                        if record.host == name]
            assert expected and filtered.records == expected
            assert sim.events_processed < full_sim.events_processed
            kinds.update(record.event for record in expected)
        assert kinds == {"send", "forward", "deliver", "drop"}

    def test_a_hop_nobody_watches_schedules_no_event(self):
        bare_sim, _, _ = nat_scenario()
        watched_sim, _, (gateway,) = nat_scenario("pgw")
        # Only the gateway's own forwards were put on the queue.
        assert {record.event for record in gateway.records} == {"forward"}
        assert (watched_sim.events_processed - bare_sim.events_processed
                == len(gateway.records))

    def test_filtered_and_unfiltered_taps_coexist(self):
        _, _, (full, gateway, radio) = nat_scenario(None, "pgw", "enb")
        for trace, name in ((gateway, "pgw"), (radio, "enb")):
            assert trace.records == [record for record in full.records
                                     if record.host == name]

    def test_close_stops_a_filtered_trace_and_its_events(self):
        sim, net, (gateway,) = nat_scenario("pgw")
        seen = len(gateway.records)
        gateway.close()
        before = sim.events_processed
        UdpSocket(net.host("ue")).send_to(b"x", Endpoint("10.1.0.1", 9))
        sim.run()
        assert len(gateway.records) == seen
        assert sim.events_processed - before == 1  # the delivery alone
