"""Client side of the minimal GET protocol.

:class:`HttpClient` fetches a URL from a resolved cache address and
reports :class:`FetchResult` with the latency split the end-to-end
experiments need (DNS time is measured separately by the stub resolver;
this measures the content hop the paper's "access latency" includes).
"""

from __future__ import annotations

from typing import Generator, NamedTuple

from repro.cdn.cache_server import HTTP_PORT
from repro.errors import CdnError
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.netsim.socket import UdpSocket

DEFAULT_FETCH_TIMEOUT_MS = 30_000.0


class FetchResult(NamedTuple):
    """One completed content fetch."""

    url: str
    server_ip: str
    status: int
    size_bytes: int
    cache_hit: bool
    served_by: str
    latency_ms: float


class HttpClient:
    """Issues GETs from a client host."""

    def __init__(self, network: Network, host: Host) -> None:
        self.network = network
        self.host = host
        self.fetches = 0

    def fetch(self, url: str, server_ip: str) -> Generator:
        """Process returning a :class:`FetchResult`.

        Raises :class:`QueryTimeout` if the server never answers and
        :class:`CdnError` on a malformed response.
        """
        sock = UdpSocket(self.host)
        started = self.network.sim.now
        self.fetches += 1
        try:
            reply = yield sock.request(f"GET {url}".encode(),
                                       Endpoint(server_ip, HTTP_PORT),
                                       DEFAULT_FETCH_TIMEOUT_MS)
        finally:
            sock.close()
        latency = self.network.sim.now - started
        return _parse_response(reply.payload, url, server_ip, latency)


def _parse_response(payload: bytes, url: str, server_ip: str,
                    latency: float) -> FetchResult:
    text = payload.decode("utf-8", "replace")
    fields = text.split()
    if not fields or not fields[0].isdigit():
        raise CdnError(f"malformed response {text!r}")
    status = int(fields[0])
    if status != 200:
        return FetchResult(url=url, server_ip=server_ip, status=status,
                           size_bytes=0, cache_hit=False, served_by="",
                           latency_ms=latency)
    if len(fields) < 4:
        raise CdnError(f"malformed 200 response {text!r}")
    return FetchResult(
        url=url, server_ip=server_ip, status=200,
        size_bytes=int(fields[1]), cache_hit=fields[2] == "HIT",
        served_by=fields[3], latency_ms=latency)
