"""Layer drivers: one tight loop per substrate, over fixed inputs.

Each driver builds its input once with the layer's public constructors and
returns a ``batch(n)`` function that performs ``n`` operations.  A batch size
is chosen so that five batches fill the driver's share of the budget, and the
median batch gives ``<point>.ns_per_op``.  Loop overhead (one ``for`` step per
operation) is included and is the same on every commit.

The inputs do not depend on ``--seed``: a layer number is meant to compare
commits, so it is taken on the same bytes every time.

Run as a child process by ``bench/run.py``; prints one JSON object.
"""
from __future__ import annotations

import argparse
import json
import pickle
import random
import statistics
import tracemalloc
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.cdn.allocation import ConsistentAllocator, HashRing
from repro.cdn.content import ZipfRankStream
from repro.dnswire.message import (Message, ResourceRecord, cached_wire,
                                   clear_wire_memo, make_query, make_response)
from repro.dnswire.name import Name
from repro.dnswire.rdata import NS, SOA, A
from repro.dnswire.types import RecordType
from repro.dnswire.zone import Zone
from repro.experiments.population import EXPERIMENT as POPULATION
from repro.measure.histogram import LatencyHistogram
from repro.netsim import (Constant, Datagram, Endpoint, Network,
                          RandomStreams, Simulator, UdpSocket)
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.cache import DnsCache
from repro.resolver.stub import StubResolver
from repro.telemetry import Exemplar, TailReservoir, TimeSeries
from repro.workload.caches import RankLru

Batch = Callable[[int], None]

DOMAIN = "mycdn.ciab.test"
QNAME = Name(f"video.demo1.{DOMAIN}")


def _response() -> Message:
    answers = [ResourceRecord(QNAME, RecordType.A, 30, A(f"10.233.1.{host}"))
               for host in (10, 11)]
    return make_response(make_query(QNAME, msg_id=7), authoritative=True,
                         answers=answers)


def _zone() -> Zone:
    zone = Zone(Name(DOMAIN))
    zone.add(ResourceRecord(Name(DOMAIN), RecordType.SOA, 300,
                            SOA(Name(f"ns.{DOMAIN}"), Name(f"admin.{DOMAIN}"),
                                1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(DOMAIN), RecordType.NS, 300,
                            NS(Name(f"ns.{DOMAIN}"))))
    zone.add(ResourceRecord(QNAME, RecordType.A, 0, A("10.233.1.10")))
    return zone


def _chain(hops: int) -> Tuple[Simulator, Network]:
    """``h0 - h1 - ... - h<hops>``, 1 ms per link, no loss."""
    sim = Simulator()
    net = Network(sim, RandomStreams(1))
    for index in range(hops + 1):
        net.add_host(f"h{index}", f"10.0.{index}.1")
    for index in range(hops):
        net.add_link(f"h{index}", f"h{index + 1}", Constant(1))
    return sim, net


# -- dnswire ----------------------------------------------------------------

def to_wire() -> Batch:
    message = _response()

    def batch(n: int) -> None:
        for _ in range(n):
            message.to_wire()
    return batch


def from_wire() -> Batch:
    wire = _response().to_wire()

    def batch(n: int) -> None:
        for _ in range(n):
            Message.from_wire(wire).question
    return batch


def from_wire_full() -> Batch:
    wire = _response().to_wire()

    def batch(n: int) -> None:
        for _ in range(n):
            Message.from_wire(wire).answers
    return batch


def cached_wire_hit() -> Batch:
    query = make_query(QNAME)

    def batch(n: int) -> None:
        for msg_id in range(n):
            query.msg_id = msg_id & 0xFFFF
            cached_wire(query)
    return batch


def cached_wire_miss() -> Batch:
    # Fewer distinct messages than the memo holds, cleared between passes,
    # so every call encodes and inserts.
    queries = [make_query(Name(f"obj{rank:07d}.pop.{DOMAIN}"))
               for rank in range(2048)]

    def batch(n: int) -> None:
        done = 0
        while done < n:
            clear_wire_memo()
            for query in queries[:n - done]:
                cached_wire(query)
            done += len(queries)
    return batch


# -- netsim -----------------------------------------------------------------

def sim_event() -> Batch:
    """A timer chain: one pending event at a time."""
    def batch(n: int) -> None:
        sim = Simulator()
        left = [n]

        def tick() -> None:
            left[0] -= 1
            if left[0] > 0:
                sim.call_after(1.0, tick)

        sim.call_soon(tick)
        sim.run(max_events=n + 1)
    return batch


def sim_event_deep() -> Batch:
    """4,096 interleaved timer chains: the open-loop queue shape.

    The chains outlive a batch — each batch stops on a future after ``n``
    events and the next one resumes — so no batch pays for filling the queue.
    """
    chains = 4096
    sim = Simulator()
    left = [0]
    stop = [sim.future()]

    def tick(period: float) -> None:
        sim.call_after(period, tick, period)
        left[0] -= 1
        if left[0] == 0:
            stop[0].resolve()

    for chain in range(chains):
        sim.call_after(1.0 + chain / chains, tick, 1.0 + chain / chains)

    def batch(n: int) -> None:
        left[0] = n
        stop[0] = sim.future()
        sim.run_until_resolved(stop[0], max_events=n + 1)
    return batch


def network_send() -> Batch:
    sim, net = _chain(4)
    sender = net.host("h0")
    source = Endpoint(sender.address, 40000)
    sink = UdpSocket(net.host("h4"), port=53)
    sink.on_datagram = lambda payload, client, sock: None
    target = sink.endpoint
    payload = make_query(QNAME).to_wire()

    def batch(n: int) -> None:
        for _ in range(n):
            net.send(Datagram(source, target, payload), sender)
        sim.run()
    return batch


# -- resolver ---------------------------------------------------------------

def _records(count: int) -> List[List[ResourceRecord]]:
    return [[ResourceRecord(Name(f"obj{rank:07d}.pop.{DOMAIN}"),
                            RecordType.A, 300, A("10.233.1.10"))]
            for rank in range(count)]


def cache_get_hit() -> Batch:
    cache = DnsCache()
    rrsets = _records(1024)
    for rrset in rrsets:
        cache.put_records(rrset, now=0.0)
    names = [rrset[0].name for rrset in rrsets]

    def batch(n: int) -> None:
        for index in range(n):
            cache.get(names[index & 1023], RecordType.A, 1000.0)
    return batch


def cache_put() -> Batch:
    cache = DnsCache()
    rrsets = _records(1024)

    def batch(n: int) -> None:
        for index in range(n):
            cache.put_records(rrsets[index & 1023], 0.0)
    return batch


def server_roundtrip() -> Batch:
    """One stub -> authoritative lookup over a single 1 ms link."""
    sim, net = _chain(1)
    AuthoritativeServer(net, net.host("h1"), [_zone()])
    stub = StubResolver(net, net.host("h0"), Endpoint("10.0.1.1", 53))

    def batch(n: int) -> None:
        for _ in range(n):
            sim.run_until_resolved(sim.spawn(stub.query(QNAME)))
    return batch


# -- cdn / workload / measure / telemetry -----------------------------------

CLIENTS = [f"10.45.{index >> 8}.{index & 255}" for index in range(1024)]


def hashring_pick() -> Batch:
    ring = HashRing([f"site0-cache{index}" for index in range(8)],
                    name_of=str)

    def batch(n: int) -> None:
        for index in range(n):
            ring.pick(CLIENTS[index & 1023])
    return batch


def allocator_assign() -> Batch:
    """Bounded-load assignment as the engine drives it: 1,024 sticky keys."""
    allocator = ConsistentAllocator(
        [f"site0-cache{index}" for index in range(8)])

    def batch(n: int) -> None:
        for index in range(n):
            allocator.assign(CLIENTS[index & 1023])
    return batch


def zipf_next_rank() -> Batch:
    stream = ZipfRankStream(100_000, random.Random(1))

    def batch(n: int) -> None:
        for _ in range(n):
            stream.next_rank()
    return batch


def ranklru_lookup() -> Batch:
    ranks = list(ZipfRankStream(100_000, random.Random(1)).ranks(16384))
    cache = RankLru(2000)

    def batch(n: int) -> None:
        for index in range(n):
            cache.lookup(ranks[index & 16383])
    return batch


def _latencies() -> List[float]:
    rng = random.Random(1)
    return [rng.lognormvariate(3.0, 0.8) for _ in range(16384)]


def histogram_add() -> Batch:
    values = _latencies()
    histogram = LatencyHistogram()

    def batch(n: int) -> None:
        for index in range(n):
            histogram.add(values[index & 16383])
    return batch


def timeseries_observe() -> Batch:
    values = _latencies()
    series = TimeSeries(window_ms=60000.0)

    def batch(n: int) -> None:
        for index in range(n):
            series.observe("repro_workload_total_ms", index * 10.0,
                           values[index & 16383], deployment="bench")
    return batch


def tail_offer() -> Batch:
    exemplars = [Exemplar(key=f"bench/u{index}", total_ms=value, t_ms=0.0,
                          stages=(("dns", value),))
                 for index, value in enumerate(_latencies())]
    reservoir = TailReservoir(32)

    def batch(n: int) -> None:
        for index in range(n):
            reservoir.offer(exemplars[index & 16383])
    return batch


DRIVERS: Tuple[Tuple[str, Callable[[], Batch]], ...] = (
    ("dnswire.to_wire", to_wire),
    ("dnswire.from_wire", from_wire),
    ("dnswire.from_wire_full", from_wire_full),
    ("dnswire.cached_wire_hit", cached_wire_hit),
    ("dnswire.cached_wire_miss", cached_wire_miss),
    ("netsim.sim.event", sim_event),
    ("netsim.sim.event_deep", sim_event_deep),
    ("netsim.network.send", network_send),
    ("resolver.cache.get_hit", cache_get_hit),
    ("resolver.cache.put", cache_put),
    ("resolver.server.roundtrip", server_roundtrip),
    ("cdn.hashring.pick", hashring_pick),
    ("cdn.allocator.assign", allocator_assign),
    ("cdn.zipf.next_rank", zipf_next_rank),
    ("workload.ranklru.lookup", ranklru_lookup),
    ("measure.histogram.add", histogram_add),
    ("telemetry.timeseries.observe", timeseries_observe),
    ("telemetry.tail.offer", tail_offer),
)

BATCHES = 5


def ns_per_op(batch: Batch, budget_s: float) -> float:
    """Median over ``BATCHES`` batches sized to fill ``budget_s``."""
    probe = 64
    batch(probe)  # first call pays lazy set-up (routing tables, memo fill)
    started = perf_counter()
    batch(probe)
    per_op = max((perf_counter() - started) / probe, 1e-9)
    n = max(probe, int(budget_s / (BATCHES + 1) / per_op))
    samples = []
    for _ in range(BATCHES):
        started = perf_counter()
        batch(n)
        samples.append((perf_counter() - started) / n)
    return statistics.median(samples) * 1e9


# -- bytes ------------------------------------------------------------------

def _retained_bytes(build: Callable[[int], object], count: int) -> float:
    """Traced bytes still held after ``build(count)``, per item.

    An untraced build is held first: it uses up CPython's tuple and float
    free lists (at most 2,000 objects each), which hand out memory that
    tracemalloc never sees, so the counted build allocates every byte.
    """
    drained = build(count)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build(count)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del held, drained
    return (after - before) / count


def from_wire_alloc() -> float:
    wire = _response().to_wire()
    return _retained_bytes(
        lambda count: [Message.from_wire(wire) for _ in range(count)], 2000)


def sim_event_alloc() -> float:
    def build(count: int) -> Simulator:
        sim = Simulator()
        for index in range(count):
            sim.call_after(1.0 + index, print, index)
        return sim
    return _retained_bytes(build, 2000)


def pickle_per_trial() -> float:
    """Bytes crossing the pool boundary per trial of the population grid:
    the experiment and specs going out, the payloads coming back."""
    params = POPULATION.resolve_params(
        {"target_queries": 2000, "deployment": "all",
         "allocation": "client-bounded", "seed": 42})
    specs = POPULATION.trials(params)
    payloads = [POPULATION.run_trial(spec) for spec in specs[:2]]
    out = len(pickle.dumps((POPULATION, tuple(specs))))
    back = len(pickle.dumps(payloads)) / len(payloads)
    return out / len(specs) + back


def run_all(budget_s: float) -> Dict[str, float]:
    share = budget_s / len(DRIVERS)
    metrics = {f"{point}.ns_per_op": ns_per_op(build(), share)
               for point, build in DRIVERS}
    metrics["dnswire.from_wire.alloc_b_per_op"] = from_wire_alloc()
    metrics["netsim.sim.event.alloc_b_per_op"] = sim_event_alloc()
    metrics["runtime.executor.pickle_b_per_trial"] = pickle_per_trial()
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds for all timing loops together")
    args = parser.parse_args()
    print(json.dumps(run_all(args.budget)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
