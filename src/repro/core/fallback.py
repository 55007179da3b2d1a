"""Client-side fallback strategies for non-MEC names.

§3 of the paper: "have DNS requests be multicast to both MEC DNS and the
network's L-DNS, or even be forwarded to L-DNS on timeout from MEC DNS".
Both strategies are implemented on the client:

* :meth:`FallbackClient.race` — send to every resolver at once; the first
  successful answer wins (the "multicast" variant);
* :meth:`FallbackClient.timeout_fallback` — try the MEC DNS with a short
  timeout, then fall back to the provider's L-DNS.

Results record which resolver won and the overhead, feeding the ablation
benchmark for the paper's "adds only a small overhead to CDN accesses for
non-latency-critical content" claim.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional

from repro.dnswire.message import Message, make_query
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.resolver.exchange import exchange


class FallbackResult(NamedTuple):
    """One resolution through a fallback strategy."""

    name: Name
    addresses: List[str]
    status: str
    winner: Endpoint
    latency_ms: float
    used_fallback: bool


class FallbackClient:
    """Resolves names against a MEC DNS with a provider L-DNS backstop."""

    def __init__(self, network: Network, host: Host, mec_dns: Endpoint,
                 provider_ldns: Endpoint,
                 mec_timeout: float = 30.0,
                 total_timeout: float = 3000.0) -> None:
        self.network = network
        self.host = host
        self.mec_dns = mec_dns
        self.provider_ldns = provider_ldns
        self.mec_timeout = mec_timeout
        self.total_timeout = total_timeout
        self._rng = network.streams.stream(f"fallback:{host.name}")
        self.mec_wins = 0
        self.provider_wins = 0

    # -- strategies -------------------------------------------------------------

    def race(self, name: Name) -> Generator:
        """Multicast: query both resolvers; first *useful* answer wins.

        A REFUSED from the MEC DNS (a non-public name under the split
        namespace) is not a useful answer, so the provider's response is
        awaited instead.
        """
        started = self.network.sim.now
        attempts = [
            self.network.sim.spawn(self._one_query(name, server))
            for server in (self.mec_dns, self.provider_ldns)
        ]
        winner = yield self.network.sim.first_success(attempts)
        server, response = winner
        self._count_win(server)
        return self._result(name, response, server, started,
                            used_fallback=server == self.provider_ldns)

    def timeout_fallback(self, name: Name) -> Generator:
        """Try the MEC DNS first; on timeout/refusal ask the provider."""
        started = self.network.sim.now
        try:
            server, response = yield from self._one_query(
                name, self.mec_dns, timeout=self.mec_timeout)
            self._count_win(server)
            return self._result(name, response, server, started,
                                used_fallback=False)
        except (QueryTimeout, _NotUseful):
            pass
        server, response = yield from self._one_query(
            name, self.provider_ldns)
        self._count_win(server)
        return self._result(name, response, server, started,
                            used_fallback=True)

    # -- internals -------------------------------------------------------------------

    def _one_query(self, name: Name, server: Endpoint,
                   timeout: Optional[float] = None) -> Generator:
        """Process returning (server, response); fails on useless answers."""
        query = make_query(name, RecordType.A,
                           msg_id=self._rng.randrange(1, 0xFFFF))
        try:
            response = yield from exchange(
                self.host, query, server,
                timeout if timeout is not None else self.total_timeout)
        except WireFormatError as error:
            raise _NotUseful(str(error)) from error
        if response.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
            raise _NotUseful(f"{server} answered {response.rcode.name}")
        return server, response

    def _count_win(self, server: Endpoint) -> None:
        if server == self.mec_dns:
            self.mec_wins += 1
        else:
            self.provider_wins += 1

    def _result(self, name: Name, response: Message, server: Endpoint,
                started: float, used_fallback: bool) -> FallbackResult:
        return FallbackResult(
            name=name,
            addresses=response.answer_addresses(),
            status=response.rcode.name,
            winner=server,
            latency_ms=self.network.sim.now - started,
            used_fallback=used_fallback)


class _NotUseful(QueryTimeout):
    """An answer that does not settle the query (REFUSED/SERVFAIL/garbage).

    Subclasses QueryTimeout so both strategies treat it as "keep waiting
    for the other resolver".
    """
