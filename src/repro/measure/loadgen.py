"""Open-loop DNS load generation.

A classic capacity-measurement tool: queries are injected at a fixed
offered rate regardless of responses (open loop, so queueing delay is
observed rather than masked by client back-pressure), from a pool of
emulated clients.  Results report goodput, loss, and the latency
distribution — the inputs for a hockey-stick capacity curve.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Generator, List, NamedTuple

from repro.dnswire.message import make_query
from repro.dnswire.name import Name
from repro.errors import QueryTimeout, WireFormatError
from repro.measure.stats import percentile
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.resolver.exchange import exchange


class LoadResult(NamedTuple):
    """One load-generation run at a fixed offered rate."""

    offered_qps: float
    duration_ms: float
    sent: int
    answered: int
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float

    @property
    def goodput_qps(self) -> float:
        return self.answered * 1000.0 / self.duration_ms

    @property
    def loss_rate(self) -> float:
        return 1.0 - (self.answered / self.sent) if self.sent else 0.0

    def __str__(self) -> str:
        return (f"offered={self.offered_qps:.0f}qps "
                f"goodput={self.goodput_qps:.0f}qps "
                f"loss={100 * self.loss_rate:.1f}% "
                f"p50={self.p50_ms:.1f}ms p95={self.p95_ms:.1f}ms "
                f"p99={self.p99_ms:.1f}ms")


class LoadGenerator:
    """Fixed-rate query injection against one DNS server."""

    def __init__(self, network: Network, host: Host, server: Endpoint,
                 qname: Name, reply_timeout_ms: float = 2000.0) -> None:
        self.network = network
        self.host = host
        self.server = server
        self.qname = qname
        self.reply_timeout_ms = reply_timeout_ms

    def run(self, offered_qps: float, duration_ms: float) -> Generator:
        """Process: inject at ``offered_qps`` for ``duration_ms``.

        Returns a :class:`LoadResult`.  The run waits one reply timeout
        beyond the injection window so in-flight answers are counted.
        """
        if offered_qps <= 0 or duration_ms <= 0:
            raise ValueError("offered rate and duration must be positive")
        sim = self.network.sim
        gap_ms = 1000.0 / offered_qps
        latencies: List[float] = []
        pending = {"sent": 0}

        def one_query(msg_id: int) -> Generator:
            query = make_query(self.qname, msg_id=msg_id)
            started = sim.now
            try:
                yield from exchange(self.host, query, self.server,
                                    self.reply_timeout_ms)
            except (QueryTimeout, WireFormatError):
                return  # lost, late or garbled: counted as loss
            latencies.append(sim.now - started)

        elapsed = 0.0
        msg_id = 0
        while elapsed < duration_ms:
            msg_id = (msg_id + 1) & 0xFFFF or 1
            pending["sent"] += 1
            sim.spawn(one_query(msg_id))
            yield gap_ms
            elapsed += gap_ms
        yield self.reply_timeout_ms  # drain in-flight replies

        if latencies:
            mean = reduce(add, latencies, 0) / len(latencies)
            p50 = percentile(latencies, 50)
            p95 = percentile(latencies, 95)
            p99 = percentile(latencies, 99)
        else:
            mean = p50 = p95 = p99 = float("inf")
        return LoadResult(
            offered_qps=offered_qps, duration_ms=duration_ms,
            sent=pending["sent"], answered=len(latencies),
            mean_latency_ms=mean, p50_ms=p50, p95_ms=p95, p99_ms=p99)


def run_load(network: Network, host: Host, server: Endpoint, qname: Name,
             offered_qps: float, duration_ms: float,
             reply_timeout_ms: float = 2000.0) -> LoadResult:
    """Convenience wrapper: build, run, and resolve one load run."""
    generator = LoadGenerator(network, host, server, qname,
                              reply_timeout_ms=reply_timeout_ms)
    return network.sim.run_until_resolved(
        network.sim.spawn(generator.run(offered_qps, duration_ms)))
