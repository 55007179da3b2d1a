"""Cache servers and origin servers with a minimal GET protocol.

The transfer protocol is deliberately tiny (documented substitution for
HTTP over TCP): a request datagram ``GET <url>`` is answered with
``200 <size> <HIT|MISS> <server>`` or ``404 <url>``.  Service time models
a lookup cost plus size/bandwidth transfer; on a miss the cache fills from
its parent (another cache tier or the origin) before answering, so
end-to-end fetch latency reflects the hierarchy — which is what the
paper's access-latency argument is about.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.cdn.content import ContentCatalog, ContentItem
from repro.errors import ContentNotFound, QueryTimeout
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Datagram, Endpoint
from repro.netsim.socket import UdpSocket

HTTP_PORT = 80
#: Upstream fill timeout.
FILL_TIMEOUT_MS = 10_000.0
#: Index lookup before a request is served, hit or miss.
LOOKUP_DELAY_MS = 0.1
#: Egress rate of every cache: 1 Gbps (1 Mbps = 125 B/ms).
BYTES_PER_MS = 1000.0 * 125.0


class CacheStats:
    """Hit/miss/fill accounting for one server."""

    __slots__ = ("hits", "misses", "evictions", "fills", "bytes_served",
                 "not_found")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.bytes_served = 0
        self.not_found = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"ratio={self.hit_ratio:.2f}, fills={self.fills}, "
                f"not_found={self.not_found}, evictions={self.evictions}, "
                f"bytes_served={self.bytes_served})")


class CacheServer:
    """One CDN cache: bounded LRU store + parent fill path.

    ``is_origin=True`` makes the server authoritative for the whole
    catalog: every request is served without storing (infinite store), the
    role the paper's origin plays behind the CDN's caches.
    """

    def __init__(self, network: Network, host: Host, catalog: ContentCatalog,
                 capacity_bytes: int = 10 ** 9,
                 parent: Optional[Endpoint] = None,
                 is_origin: bool = False) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.network = network
        self.host = host
        self.catalog = catalog
        self.capacity_bytes = capacity_bytes
        self.parent = parent
        self.is_origin = is_origin
        self.online = True
        self.stats = CacheStats()
        #: Resident content id -> size, least recently used first.
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self.used_bytes = 0
        self.sock = UdpSocket(host, port=HTTP_PORT)
        self.sock.on_datagram = self._on_request

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def endpoint(self) -> Endpoint:
        return self.sock.endpoint

    # -- store management ------------------------------------------------------

    def contains(self, url: str) -> bool:
        """Whether ``url`` is currently served from this store."""
        return self.is_origin or url in self._resident

    def admit(self, item: ContentItem) -> None:
        """Insert ``item``, evicting least recently used until it fits."""
        if item.content_id in self._resident or self.is_origin:
            return
        if item.size_bytes > self.capacity_bytes:
            return  # object larger than the cache; never admitted
        while self.used_bytes + item.size_bytes > self.capacity_bytes:
            _, size = self._resident.popitem(last=False)
            self.used_bytes -= size
            self.stats.evictions += 1
        self._resident[item.content_id] = item.size_bytes
        self.used_bytes += item.size_bytes

    def warm(self, items) -> None:
        """Preload items (deployment-time content placement)."""
        for item in items:
            self.admit(item)

    # -- request handling ------------------------------------------------------------

    def _on_request(self, datagram: Datagram, client: Endpoint,
                    _sock: UdpSocket) -> None:
        if not self.online:
            return  # an offline cache is silent; clients time out
        self.network.sim.spawn(
            self._serve(datagram.payload, client, ctx=datagram.trace_ctx))

    def _serve(self, payload: bytes, client: Endpoint,
               ctx=None) -> Generator:
        yield LOOKUP_DELAY_MS
        try:
            url = _parse_get(payload)
            item = self.catalog.by_url(url)
        except (ValueError, ContentNotFound):
            self.stats.not_found += 1
            self.sock.send_to(b"404 " + payload[:64], client, ctx=ctx)
            return
        if self.contains(item.content_id):
            self.stats.hits += 1
            if not self.is_origin:
                self._resident.move_to_end(item.content_id)
            yield from self._transmit(item, client, hit=True, ctx=ctx)
            return
        self.stats.misses += 1
        if self.parent is None:
            self.stats.not_found += 1
            self.sock.send_to(f"404 {url}".encode(), client, ctx=ctx)
            return
        filled = yield from self._fill_from_parent(item, ctx=ctx)
        if not filled:
            self.sock.send_to(f"504 {url}".encode(), client, ctx=ctx)
            return
        self.admit(item)
        yield from self._transmit(item, client, hit=False, ctx=ctx)

    def _fill_from_parent(self, item: ContentItem, ctx=None) -> Generator:
        assert self.parent is not None
        sock = UdpSocket(self.host)
        try:
            reply = yield sock.request(
                f"GET {item.url}".encode(), self.parent, FILL_TIMEOUT_MS,
                ctx=ctx)
        except QueryTimeout:
            return False
        finally:
            sock.close()
        self.stats.fills += 1
        return reply.payload.startswith(b"200 ")

    def _transmit(self, item: ContentItem, client: Endpoint,
                  hit: bool, ctx=None) -> Generator:
        yield item.size_bytes / BYTES_PER_MS
        self.stats.bytes_served += item.size_bytes
        marker = "HIT" if hit else "MISS"
        self.sock.send_to(
            f"200 {item.size_bytes} {marker} {self.name}".encode(), client,
            ctx=ctx)

    def __repr__(self) -> str:
        kind = "origin" if self.is_origin else "cache"
        return (f"CacheServer({self.name}, {kind}, "
                f"{self.used_bytes}/{self.capacity_bytes}B, {self.stats!r})")


def _parse_get(payload: bytes) -> str:
    text = payload.decode("utf-8", "strict")
    verb, _, url = text.partition(" ")
    if verb != "GET" or not url:
        raise ValueError(f"malformed request {text!r}")
    return url
