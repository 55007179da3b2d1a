"""The routed topology: hosts, links, forwarding, middleboxes, taps.

Routing is shortest-path by mean link latency over an undirected graph:
one Dijkstra per sending host, run on that host's first send and kept
until a link changes.  Delivery walks the path hop by hop, sampling each
link's latency, applying any middlebox at each traversed host, and
re-routing when a middlebox rewrites the destination (NAT).  Packet taps
observe datagrams at named hosts, which is how the experiments split
"wireless" from "resolver" time exactly like the paper's tcpdump-at-P-GW
method.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AddressError, RoutingError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Datagram
from repro.netsim.rand import RandomStreams

#: A tap sees (time_ms, host_name, event, datagram); event is "send",
#: "forward", "deliver", or "drop".
Tap = Callable[[float, str, str, Datagram], None]

#: Hard bound on middlebox-driven re-routing to catch rewrite loops.
_MAX_REROUTES = 16

#: Distance to a host no route has reached yet.
_UNREACHED = float("inf")


class Network:
    """A topology of hosts and links bound to a simulator."""

    def __init__(self, sim: Simulator, streams: RandomStreams) -> None:
        self.sim = sim
        self.streams = streams
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: host -> {neighbour: routing weight}.  Each inner dict is in
        #: link-insertion order, which :meth:`_routes_from` breaks ties by.
        self._adjacency: Dict[str, Dict[str, float]] = {}
        #: source -> {destination: route}, filled per source on first use
        #: and emptied by every link change.
        self._routes: Dict[str, Dict[str, List[str]]] = {}
        self._ip_index: Dict[str, Host] = {}
        #: Taps that see every host, and taps that watch one host.
        self._taps: List[Tap] = []
        self._host_taps: Dict[str, List[Tap]] = {}
        #: Attached :class:`repro.telemetry.Telemetry`, or ``None``.
        #: Every instrumentation site in the stack checks this before
        #: doing any work, so an unobserved network runs the exact same
        #: instruction stream as before the subsystem existed.
        self.telemetry = None
        #: Cached counter instruments, valid while ``telemetry`` is
        #: ``_metrics_facade``.  Each is still registered lazily on its
        #: first use (identical registry contents to uncached code); the
        #: cache only skips the registry lookup on the per-packet path.
        self._metrics_facade = None
        self._m_datagrams = None
        self._m_delivered = None
        self._m_drops = None
        #: Active partitions: (group_a, group_b) pairs of host-name sets.
        #: ``group_b is None`` means "everything not in group_a".  Empty
        #: when no fault plan is active, so the per-packet check is one
        #: truthiness test.
        self._partitions: List[frozenset] = []

    # -- construction -------------------------------------------------------------

    def add_host(self, name: str, *addresses: str) -> Host:
        """Create a host, assign its addresses, join the topology."""
        if name in self._hosts:
            raise AddressError(f"duplicate host name {name}")
        host = Host(name)
        host.network = self
        self._hosts[name] = host
        self._adjacency[name] = {}
        for ip in addresses:
            self.assign_address(host, ip)
        return host

    def assign_address(self, host: Host, ip: str) -> None:
        """Bind ``ip`` to ``host`` (must be globally unique)."""
        if ip in self._ip_index:
            raise AddressError(f"address {ip} already assigned to "
                               f"{self._ip_index[ip].name}")
        host.addresses.append(ip)
        self._ip_index[ip] = host

    def release_address(self, host: Host, ip: str) -> None:
        """Unbind ``ip`` from ``host`` so it can move elsewhere."""
        if self._ip_index.get(ip) is not host:
            raise AddressError(f"{ip} is not assigned to {host.name}")
        host.addresses.remove(ip)
        del self._ip_index[ip]

    def add_link(self, a: str, b: str, latency, loss: float = 0.0,
                 name: Optional[str] = None,
                 bandwidth_mbps: Optional[float] = None) -> Link:
        """Connect two hosts with a latency model (and optional loss)."""
        for endpoint in (a, b):
            if endpoint not in self._hosts:
                raise AddressError(f"unknown host {endpoint}")
        link = Link(a, b, latency, loss=loss, name=name,
                    bandwidth_mbps=bandwidth_mbps)
        self._links[self._link_key(a, b)] = link
        weight = max(link.mean_latency, 1e-9)
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight
        self._routes = {}
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Tear down the link between ``a`` and ``b`` (e.g. radio handoff).

        Packets already scheduled keep their sampled delivery times, as
        in-flight frames do during a real handoff.
        """
        key = self._link_key(a, b)
        try:
            link = self._links.pop(key)
        except KeyError:
            raise RoutingError(f"no link between {a} and {b}") from None
        del self._adjacency[a][b]
        if a != b:
            del self._adjacency[b][a]
        self._routes = {}
        return link

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- lookups ----------------------------------------------------------------------

    def host(self, name: str) -> Host:
        """The host named ``name``; raises AddressError if unknown."""
        try:
            return self._hosts[name]
        except KeyError:
            raise AddressError(f"unknown host {name}") from None

    def host_for_ip(self, ip: str) -> Host:
        """The host owning ``ip``; raises AddressError if unowned."""
        try:
            return self._ip_index[ip]
        except KeyError:
            raise AddressError(f"no host owns {ip}") from None

    def link_between(self, a: str, b: str) -> Link:
        """The link between two adjacent hosts; raises RoutingError."""
        try:
            return self._links[self._link_key(a, b)]
        except KeyError:
            raise RoutingError(f"no link between {a} and {b}") from None

    # -- partitions (fault injection) ---------------------------------------------

    def partition(self, group) -> frozenset:
        """Split the topology: isolate ``group`` from every other host.

        The returned token heals the cut via :meth:`heal_partition`.
        Packets are dropped by endpoint membership (one end inside the
        group, the other outside), which black-holes the traffic a real
        partition would.
        """
        names = sorted(group)
        for name in names:
            if name not in self._hosts:
                raise AddressError(f"unknown host {name}")
        token = frozenset(names)
        self._partitions.append(token)
        return token

    def heal_partition(self, token) -> None:
        """Remove a partition installed by :meth:`partition`."""
        self._partitions.remove(token)

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether an active partition separates two hosts."""
        return any((src in group) != (dst in group)
                   for group in self._partitions)

    def add_tap(self, tap: Tap, host: Optional[str] = None) -> None:
        """Register a packet observer (see PacketTrace).

        With ``host``, the tap sees only events at that host, and events
        at hosts nobody watches are never scheduled.
        """
        if host is None:
            self._taps.append(tap)
        else:
            self._host_taps.setdefault(host, []).append(tap)

    def remove_tap(self, tap: Tap, host: Optional[str] = None) -> None:
        """Unregister a packet observer (same ``host`` as it was added with)."""
        if host is None:
            self._taps.remove(tap)
            return
        watchers = self._host_taps[host]
        watchers.remove(tap)
        if not watchers:
            del self._host_taps[host]

    # -- routing ----------------------------------------------------------------------------

    def path(self, src: str, dst: str) -> List[str]:
        """Host names from ``src`` to ``dst`` inclusive."""
        routes = self._routes.get(src)
        if routes is None:
            if src not in self._adjacency:
                raise RoutingError(f"no route from {src} to {dst}")
            routes = self._routes[src] = self._routes_from(src)
        try:
            return routes[dst]
        except KeyError:
            raise RoutingError(f"no route from {src} to {dst}") from None

    def _routes_from(self, src: str) -> Dict[str, List[str]]:
        """The shortest route from ``src`` to every host it can reach.

        Dijkstra with the tie-breaking the golden digests were recorded
        under (docs/DETERMINISM.md, invariant 8): hosts settle in
        (distance, push order), a host is re-pushed only for a strictly
        smaller distance, and neighbours are visited in link-insertion
        order.  Among equal-cost routes this keeps the one found first.
        """
        adjacency = self._adjacency
        routes: Dict[str, List[str]] = {}
        reached = {src: 0.0}
        #: (distance, push order, host, the host it was reached from)
        fringe: List[Tuple[float, int, str, Optional[str]]] = [
            (0.0, 0, src, None)]
        pushes = 1
        while fringe:
            distance, _, host, previous = heappop(fringe)
            if host in routes:
                continue
            routes[host] = ([host] if previous is None
                            else routes[previous] + [host])
            for neighbour, weight in adjacency[host].items():
                if neighbour in routes:
                    continue
                reach = distance + weight
                if reach < reached.get(neighbour, _UNREACHED):
                    reached[neighbour] = reach
                    heappush(fringe, (reach, pushes, neighbour, host))
                    pushes += 1
        return routes

    # -- forwarding -----------------------------------------------------------------------------

    def send(self, datagram: Datagram, from_host: Host) -> None:
        """Inject ``datagram`` at ``from_host`` and walk it to delivery.

        The walk samples each link once, applies middleboxes at every
        traversed host (including the final one), follows destination
        rewrites, and schedules the delivery callback at the accumulated
        time.  Loss anywhere silently drops the packet.
        """
        tel = self.telemetry
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_datagrams
            if counter is None:
                counter = self._m_datagrams = tel.metrics.counter(
                    "repro_net_datagrams_total",
                    "datagrams injected into the network")
            counter.inc(protocol=datagram.protocol)
        self._emit("send", from_host.name, datagram)
        self._walk(datagram, from_host, elapsed=0.0, reroutes=0)

    def _walk(self, datagram: Datagram, at: Host, elapsed: float,
              reroutes: int) -> None:
        if reroutes > _MAX_REROUTES:
            raise RoutingError(
                f"middlebox rewrite loop for {datagram!r} at {at.name}")
        try:
            dst_host = self.host_for_ip(datagram.dst.ip)
        except AddressError:
            self._count_drop("unroutable")
            self._schedule_tap("drop", at.name, datagram, elapsed)
            return
        if self._partitions and self.is_partitioned(at.name, dst_host.name):
            self._count_drop("partition")
            self._schedule_tap("drop", at.name, datagram, elapsed)
            return
        hops = self.path(at.name, dst_host.name)
        rng = self.streams.stream("link-delays")
        current = datagram
        # The walk runs synchronously at send time, so ``sim.now`` here is
        # the injection instant; hop span endpoints are ``send_now +
        # elapsed``, the same float expression the tap callbacks observe
        # as ``sim.now`` when they fire.
        tracer = None
        ctx = datagram.trace_ctx
        if self.telemetry is not None and ctx is not None:
            tracer = self.telemetry.tracer
        send_now = self.sim.now
        links = self._links
        for previous, nxt in zip(hops, hops[1:]):
            # Inline link_between: ``hops`` came from path() over the
            # live graph, so every consecutive pair has a link.
            link = links[(previous, nxt) if previous <= nxt
                         else (nxt, previous)]
            hop_start = elapsed
            delay = link.sample_delay(rng, current.size)
            if delay is None:
                self._count_drop("loss")
                self._schedule_tap("drop", nxt, current, elapsed)
                return
            elapsed += delay
            current.hops.append(nxt)
            if tracer is not None:
                tracer.add(
                    "transit", "net", track=nxt, parent=ctx,
                    start_ms=send_now + hop_start,
                    end_ms=send_now + elapsed,
                    link=link.name or f"{previous}~{nxt}",
                    protocol=current.protocol, size=current.size,
                    final=nxt == hops[-1],
                    **{"from": previous, "to": nxt})
            arrived_at = self._hosts[nxt]
            if arrived_at.middlebox is not None and nxt != hops[-1]:
                processed = arrived_at.middlebox.process(current, arrived_at)
                if processed is None:
                    self._count_drop("middlebox")
                    self._schedule_tap("drop", nxt, current, elapsed)
                    return
                self._schedule_tap("forward", nxt, processed, elapsed)
                if processed.dst.ip != current.dst.ip:
                    self._walk(processed, arrived_at, elapsed, reroutes + 1)
                    return
                current = processed
            elif nxt != hops[-1]:
                self._schedule_tap("forward", nxt, current, elapsed)
        final_host = self._hosts[hops[-1]]
        if final_host.middlebox is not None:
            processed = final_host.middlebox.process(current, final_host)
            if processed is None:
                self._count_drop("middlebox")
                self._schedule_tap("drop", final_host.name, current, elapsed)
                return
            if not final_host.owns(processed.dst.ip):
                self._schedule_tap("forward", final_host.name, processed, elapsed)
                self._walk(processed, final_host, elapsed, reroutes + 1)
                return
            current = processed
        self.sim.call_after(elapsed + final_host.brownout_ms,
                            self._deliver, final_host, current)

    def _deliver(self, host: Host, datagram: Datagram) -> None:
        tel = self.telemetry
        if host.down:
            self._count_drop("host-down")
            self._emit("drop", host.name, datagram)
            return
        self._emit("deliver", host.name, datagram)
        sock = host.socket_on_port(datagram.dst.port)
        if sock is None:
            self._count_drop("no-socket")
            self._emit("drop", host.name, datagram)
            return
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_delivered
            if counter is None:
                counter = self._m_delivered = tel.metrics.counter(
                    "repro_net_delivered_total",
                    "datagrams handed to a bound socket")
            counter.inc(protocol=datagram.protocol)
            if datagram.trace_ctx is not None:
                tel.tracer.event("deliver", "net", track=host.name,
                                 parent=datagram.trace_ctx,
                                 dst=str(datagram.dst))
        sock.handle_delivery(datagram)

    # -- taps ------------------------------------------------------------------------------------

    def _schedule_tap(self, event: str, host_name: str, datagram: Datagram,
                      elapsed: float) -> None:
        if self._taps or host_name in self._host_taps:
            self.sim.call_after(
                elapsed, self._emit, event, host_name, datagram)

    def _emit(self, event: str, host_name: str, datagram: Datagram) -> None:
        now = self.sim.now
        for tap in self._taps:
            tap(now, host_name, event, datagram)
        if self._host_taps:
            for tap in self._host_taps.get(host_name, ()):
                tap(now, host_name, event, datagram)

    def _count_drop(self, reason: str) -> None:
        tel = self.telemetry
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_drops
            if counter is None:
                counter = self._m_drops = tel.metrics.counter(
                    "repro_net_drops_total",
                    "datagrams dropped in transit")
            counter.inc(reason=reason)
