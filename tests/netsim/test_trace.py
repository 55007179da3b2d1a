"""Tests for the per-host crossing record, the simulator's packet trace.

A host whose ``crossings`` is a list records the arrival time of every
datagram it forwards; ``None`` (the default) records nothing.
"""

from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.netsim.socket import UdpSocket
from tests.netsim.test_network import NAT_HOSTS, nat_scenario


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
    def test_host_filter_limits_to_one_host(self):
        sim, net = three_hop_network()
        net.host("middle").crossings = []
        send_one(sim, net)
        assert net.host("middle").crossings == [1.0]
        assert net.host("client").crossings is None
        assert net.host("server").crossings is None


class TestLifecycle:
    def test_close_stops_capturing(self):
        sim, net = three_hop_network()
        net.host("middle").crossings = crossings = []
        send_one(sim, net)
        seen = list(crossings)
        net.host("middle").crossings = None
        send_one(sim, net)
        assert seen and crossings == seen
        assert net.host("middle").crossings is None


class TestHostFilterAppliedByTheNetwork:
    def test_a_hop_nobody_watches_schedules_no_event(self):
        bare_sim, _ = nat_scenario()
        gateway_sim, gateway = nat_scenario("pgw")
        every_sim, every = nat_scenario(*NAT_HOSTS)
        assert gateway.host("pgw").crossings
        # Neither an unwatched hop nor a watched one adds to the queue.
        assert gateway_sim.events_processed == bare_sim.events_processed
        assert every_sim.events_processed == bare_sim.events_processed
        assert every.host("pgw").crossings == gateway.host("pgw").crossings

    def test_close_stops_a_filtered_trace_and_its_events(self):
        sim, net = nat_scenario("pgw")
        gateway = net.host("pgw").crossings
        seen = list(gateway)
        net.host("pgw").crossings = None
        before = sim.events_processed
        # Through the P-GW to the WAN router, which has no listener.
        UdpSocket(net.host("ue")).send_to(b"x", Endpoint("203.0.113.1", 9))
        sim.run()
        assert seen and gateway == seen
        assert sim.events_processed - before == 1  # the delivery alone
