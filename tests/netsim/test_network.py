"""Tests for topology, forwarding, middleboxes, sockets, and crossings."""

import gc
import weakref

import pytest

from repro.errors import AddressError, QueryTimeout, RoutingError, SocketError
from repro.mobile.nat import NatMiddlebox
from repro.netsim import (
    Constant,
    Endpoint,
    Middlebox,
    Network,
    RandomStreams,
    Simulator,
    UdpSocket,
)


class IidLoss:
    """A ``Link.loss_model`` that drops each traversal with probability
    ``p``, independently: one draw per traversal."""

    def __init__(self, p):
        self.p = p

    def lost(self, rng):
        return rng.random() < self.p


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, RandomStreams(42))
    return network


def build_line(network, *specs):
    """hosts a-b-c... with constant-latency links: specs = (name, ip, latency_to_next)."""
    previous = None
    previous_latency = None
    for name, ip, latency in specs:
        network.add_host(name, ip)
        if previous is not None:
            network.add_link(previous, name, Constant(previous_latency))
        previous = name
        previous_latency = latency


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_host("a", "10.0.0.2")

    def test_duplicate_ip_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_host("b", "10.0.0.1")

    def test_link_to_unknown_host_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_link("a", "ghost", Constant(1))

    def test_path_shortest_by_latency(self, net):
        for name, ip in [("a", "1.0.0.1"), ("b", "1.0.0.2"),
                         ("c", "1.0.0.3"), ("d", "1.0.0.4")]:
            net.add_host(name, ip)
        net.add_link("a", "b", Constant(1))
        net.add_link("b", "d", Constant(1))
        net.add_link("a", "c", Constant(5))
        net.add_link("c", "d", Constant(5))
        assert net.path("a", "d") == ["a", "b", "d"]

    def test_no_route_raises(self, net):
        net.add_host("a", "1.0.0.1")
        net.add_host("b", "1.0.0.2")
        with pytest.raises(RoutingError):
            net.path("a", "b")

    def test_routing_cache_invalidated_by_new_link(self, net):
        for name, ip in [("a", "1.0.0.1"), ("b", "1.0.0.2"), ("c", "1.0.0.3")]:
            net.add_host(name, ip)
        net.add_link("a", "b", Constant(10))
        net.add_link("b", "c", Constant(10))
        assert net.path("a", "c") == ["a", "b", "c"]
        net.add_link("a", "c", Constant(1))
        assert net.path("a", "c") == ["a", "c"]

    def test_address_release_and_reassign(self, net):
        a = net.add_host("a", "1.0.0.1", "198.51.100.1")
        net.release_address(a, "198.51.100.1")
        b = net.add_host("b", "1.0.0.2")
        net.assign_address(b, "198.51.100.1")
        assert net.host_for_ip("198.51.100.1") is b


class TestCompiledRoutes:
    """A send walks a route compiled once per topology: every link or
    address change must recompile it."""

    def triangle(self, net):
        """a -1- b -1- c, and a -5- c; a socket on c."""
        for name, ip in [("a", "10.0.0.1"), ("b", "10.0.0.2"),
                         ("c", "10.0.0.3")]:
            net.add_host(name, ip)
        net.add_link("a", "b", Constant(1))
        net.add_link("b", "c", Constant(1))
        net.add_link("a", "c", Constant(5))
        arrivals = []
        UdpSocket(net.host("c"), port=9).on_datagram = \
            lambda datagram, src, sock: arrivals.append(net.sim.now)
        return UdpSocket(net.host("a")), arrivals

    def test_a_removed_link_reroutes_the_next_send(self, net):
        sender, arrivals = self.triangle(net)
        sender.send_to(b"x", Endpoint("10.0.0.3", 9))
        net.sim.run()
        net.remove_link("a", "b")
        sender.send_to(b"x", Endpoint("10.0.0.3", 9))
        net.sim.run()
        assert arrivals == [2.0, 7.0]
        net.remove_link("a", "c")
        with pytest.raises(RoutingError):
            sender.send_to(b"x", Endpoint("10.0.0.3", 9))

    def test_a_moved_address_reaches_its_new_owner(self, net):
        sender, arrivals = self.triangle(net)
        sender.send_to(b"x", Endpoint("198.51.100.1", 9))  # nobody owns it
        net.assign_address(net.host("c"), "198.51.100.1")
        sender.send_to(b"x", Endpoint("198.51.100.1", 9))
        net.sim.run()
        net.release_address(net.host("c"), "198.51.100.1")
        sender.send_to(b"x", Endpoint("198.51.100.1", 9))  # unowned again
        net.sim.run()
        net.assign_address(net.host("b"), "198.51.100.1")
        seen = []
        UdpSocket(net.host("b"), port=9).on_datagram = \
            lambda datagram, src, sock: seen.append(net.sim.now)
        sender.send_to(b"x", Endpoint("198.51.100.1", 9))
        net.sim.run()
        assert arrivals == [2.0] and seen == [3.0]


class TestDelivery:
    def test_end_to_end_latency_is_sum_of_links(self, net):
        build_line(net, ("client", "10.0.0.1", 3), ("mid", "10.0.0.2", 4),
                   ("server", "10.0.0.3", 0))
        received = []
        server_sock = UdpSocket(net.host("server"), port=53)
        server_sock.on_datagram = lambda datagram, src, sock: received.append(
            (net.sim.now, datagram.payload))
        client_sock = UdpSocket(net.host("client"))
        client_sock.send_to(b"hello", Endpoint("10.0.0.3", 53))
        net.sim.run()
        assert received == [(7.0, b"hello")]

    def test_request_reply_roundtrip(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        server_sock = UdpSocket(net.host("server"), port=53)
        server_sock.on_datagram = lambda datagram, src, sock: sock.send_to(
            b"re:" + datagram.payload, src)
        client_sock = UdpSocket(net.host("client"))
        future = client_sock.request(b"ping", Endpoint("10.0.0.2", 53), timeout=100)
        reply = net.sim.run_until_resolved(future)
        assert reply.payload == b"re:ping"
        assert net.sim.now == 10.0

    def test_request_times_out(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        # No socket listening on the server.
        client_sock = UdpSocket(net.host("client"))
        future = client_sock.request(b"ping", Endpoint("10.0.0.2", 53), timeout=30)
        with pytest.raises(QueryTimeout):
            net.sim.run_until_resolved(future)
        assert net.sim.now == 30.0

    def test_timed_out_request_is_freed_without_the_cycle_collector(self, net):
        # The failed future holds the QueryTimeout, whose traceback holds
        # the awaiting frame and so the socket: unless close() lets go of
        # the future, every timeout leaves a cycle for the collector.
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        sock = UdpSocket(net.host("client"))
        freed = weakref.ref(sock)

        def ask(sock):
            try:
                yield sock.request(b"ping", Endpoint("10.0.0.2", 53),
                                   timeout=30)
            except QueryTimeout:
                return "lost"
            finally:
                sock.close()

        gc.collect()
        gc.disable()
        try:
            done = net.sim.spawn(ask(sock))
            del sock
            net.sim.run()
            assert done.result() == "lost"
            assert freed() is None
        finally:
            gc.enable()

    def test_unroutable_destination_is_dropped(self, net):
        net.add_host("client", "10.0.0.1")
        client_sock = UdpSocket(net.host("client"))
        client_sock.send_to(b"x", Endpoint("203.0.113.9", 53))
        net.sim.run()  # no exception; packet silently dropped

    def test_lossy_link_drops(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(7))
        net.add_host("a", "10.0.0.1")
        net.add_host("b", "10.0.0.2")
        link = net.add_link("a", "b", Constant(1))
        link.loss_model = IidLoss(0.5)
        delivered = []
        server = UdpSocket(net.host("b"), port=9)
        server.on_datagram = lambda datagram, src, sock: delivered.append(
            datagram.payload)
        sender = UdpSocket(net.host("a"), port=1000)
        for _ in range(200):
            sender.send_to(b"x", Endpoint("10.0.0.2", 9))
        sim.run()
        assert 40 < len(delivered) < 160
        assert link.packets_dropped + link.packets_carried == 200

    def test_one_request_in_flight_enforced(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        sock = UdpSocket(net.host("client"))
        sock.request(b"a", Endpoint("10.0.0.2", 53), timeout=100)
        with pytest.raises(SocketError):
            sock.request(b"b", Endpoint("10.0.0.2", 53), timeout=100)

    def test_closed_socket_rejects_send(self, net):
        net.add_host("a", "10.0.0.1")
        sock = UdpSocket(net.host("a"))
        sock.close()
        with pytest.raises(SocketError):
            sock.send_to(b"x", Endpoint("10.0.0.1", 1))

    def test_port_collision_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        UdpSocket(net.host("a"), port=53)
        with pytest.raises(AddressError):
            UdpSocket(net.host("a"), port=53)

    def test_ephemeral_ports_unique(self, net):
        net.add_host("a", "10.0.0.1")
        ports = {UdpSocket(net.host("a")).port for _ in range(50)}
        assert len(ports) == 50


class _Nat(Middlebox):
    """Minimal source-NAT: rewrites private sources to the public IP."""

    def __init__(self, public_ip):
        self.public_ip = public_ip
        self.mappings = {}
        self.next_port = 20000

    def process(self, datagram, host):
        if datagram.src.ip.startswith("10.") and not host.owns(datagram.dst.ip):
            public = Endpoint(self.public_ip, self.next_port)
            self.next_port += 1
            self.mappings[public] = datagram.src
            return datagram.rewritten(src=public)
        if host.owns(datagram.dst.ip) and datagram.dst in self.mappings:
            return datagram.rewritten(dst=self.mappings[datagram.dst])
        return datagram


class TestMiddlebox:
    def build_nat_topology(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(1))
        net.add_host("ue", "10.1.0.2")
        net.add_host("pgw", "10.1.0.1", "198.51.100.1")
        net.add_host("cdn", "203.0.113.10")
        net.add_link("ue", "pgw", Constant(10))
        net.add_link("pgw", "cdn", Constant(20))
        nat = _Nat("198.51.100.1")
        net.host("pgw").install_middlebox(nat)
        return sim, net, nat

    def test_server_sees_public_ip(self):
        sim, net, nat = self.build_nat_topology()
        seen = []
        server = UdpSocket(net.host("cdn"), port=53)
        server.on_datagram = lambda datagram, src, sock: seen.append(src)
        client = UdpSocket(net.host("ue"))
        client.send_to(b"q", Endpoint("203.0.113.10", 53))
        sim.run()
        assert seen[0].ip == "198.51.100.1"  # the paper's IP obfuscation

    def test_reply_translates_back_to_client(self):
        sim, net, nat = self.build_nat_topology()
        server = UdpSocket(net.host("cdn"), port=53)
        server.on_datagram = lambda datagram, src, sock: sock.send_to(b"r", src)
        client = UdpSocket(net.host("ue"))
        future = client.request(b"q", Endpoint("203.0.113.10", 53), timeout=500)
        reply = sim.run_until_resolved(future)
        assert reply.payload == b"r"
        assert sim.now == 60.0  # 2 * (10 + 20)


class TestTrace:
    def test_trace_records_forwarding_at_host(self, net):
        build_line(net, ("ue", "10.0.0.1", 10), ("pgw", "10.0.0.2", 20),
                   ("dns", "10.0.0.3", 0))
        net.host("pgw").crossings = crossings = []
        server = UdpSocket(net.host("dns"), port=53)
        server.on_datagram = lambda datagram, src, sock: sock.send_to(b"r", src)
        client = UdpSocket(net.host("ue"))
        future = client.request(b"q", Endpoint("10.0.0.3", 53), timeout=500)
        net.sim.run_until_resolved(future)
        # The query and the reply passing the P-GW.
        assert crossings == [10.0, 50.0]

    def test_trace_close_stops_capture(self, net):
        """Setting ``crossings`` back to ``None`` stops the record."""
        build_line(net, ("a", "10.0.0.1", 1), ("b", "10.0.0.2", 1),
                   ("c", "10.0.0.3", 0))
        net.host("b").crossings = crossings = []
        server = UdpSocket(net.host("c"), port=5)
        server.on_datagram = lambda datagram, src, sock: None
        sender = UdpSocket(net.host("a"))
        sender.send_to(b"x", Endpoint("10.0.0.3", 5))
        net.sim.run()
        assert crossings == [1.0]
        net.host("b").crossings = None
        sender.send_to(b"x", Endpoint("10.0.0.3", 5))
        net.sim.run()
        assert crossings == [1.0]

    def test_nat_crossings_only_at_the_watched_host(self):
        watched_sim, watched = nat_scenario("pgw")
        bare_sim, _ = nat_scenario()
        # Query out at 7, reply back through the NAT at 27, then the
        # datagrams to a closed port (sent at 34) and over the dead link
        # (sent at 500, once the request's timer has run out).  The
        # unowned address drops at the sender, the closed port and the
        # dead link past the P-GW: no drop is a crossing there.
        assert watched.host("pgw").crossings == [7.0, 27.0, 41.0, 507.0]
        assert watched.link_between("wan", "server").packets_dropped == 1
        for name in NAT_HOSTS:
            if name != "pgw":
                assert watched.host(name).crossings is None
        # Recording schedules nothing.
        assert watched_sim.events_processed == bare_sim.events_processed


NAT_HOSTS = ("ue", "enb", "pgw", "wan", "server")


def nat_scenario(*watched):
    """ue -- enb -- pgw (NAT) -- wan -- server, with ``watched`` recording.

    One echoed request (forwarded through the NAT both ways), then one
    datagram each into a port nobody listens on, an address nobody owns
    and a dead link (a drop at the destination, at the sender and in
    transit).
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
    for name in watched:
        net.host(name).crossings = []
    server = UdpSocket(net.host("server"), port=53)
    server.on_datagram = lambda datagram, src, sock: sock.send_to(b"r", src)
    client = UdpSocket(net.host("ue"))
    sim.run_until_resolved(
        client.request(b"q", Endpoint("203.0.113.10", 53), timeout=500))
    client.send_to(b"nobody-listens", Endpoint("203.0.113.10", 9))
    client.send_to(b"nobody-owns", Endpoint("192.0.2.9", 53))
    sim.run()
    backbone.loss_model = IidLoss(1.0)
    client.send_to(b"dead-link", Endpoint("203.0.113.10", 53))
    sim.run()
    return sim, net
