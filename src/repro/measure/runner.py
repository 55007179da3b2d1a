"""Repeated-query drivers with the paper's wireless/resolver split.

The paper: "We perform the measurements using both dig from the client
side and tcpdump at P-GW to track the DNS request packets", splitting each
lookup into (i) the wireless UE<->P-GW delay and (ii) everything beyond
the P-GW.  :func:`measure_deployment_queries` reproduces this: the
gateway host's ``crossings`` list records when the query and reply cross
the P-GW; the first and last crossing inside a lookup split its round
trip into the two segments.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional

from repro.core.deployments import Testbed
from repro.errors import QueryTimeout, WireFormatError


class QueryMeasurement(NamedTuple):
    """One measured DNS lookup."""

    latency_ms: float
    wireless_ms: float      # UE <-> P-GW portion of the round trip
    resolver_ms: float      # beyond-the-P-GW portion
    addresses: List[str]
    status: str
    started_at: float
    trace_id: Optional[int] = None  # telemetry trace, when observed


#: Inter-query spacing, and the warmup lookups discarded before measuring.
SPACING_MS = 500.0
WARMUP_QUERIES = 1


def measure_deployment_queries(testbed: Testbed,
                               count: int) -> List[QueryMeasurement]:
    """Run one warmup query and ``count`` more; return the measured ones.

    The warmup query lets resolvers with warm-cache semantics settle (and
    mirrors the practice of discarding the first dig of a session).  The
    client is the UE's plain stub.  A lookup whose every attempt fails —
    what ``stub.query`` is documented to raise, nothing broader — is
    recorded as a ``TIMEOUT`` measurement with empty addresses rather
    than aborting the run.
    """
    if count <= 0:
        raise ValueError("need a positive query count")
    crossings: List[float] = []
    gateway = testbed.network.host(testbed.gateway_host)
    gateway.crossings = crossings
    stub = testbed.ue.stub()
    sim = testbed.sim
    measurements: List[QueryMeasurement] = []

    tel = testbed.network.telemetry

    def driver() -> Generator:
        for index in range(WARMUP_QUERIES + count):
            warmup = index < WARMUP_QUERIES
            started = sim.now
            # A packet walked before this lookup may cross after its
            # start, so trim by time rather than clearing.
            crossings[:] = [time for time in crossings if time >= started]
            span = None
            if tel is not None:
                span = tel.tracer.begin(
                    "lookup", "measure", "measure-driver",
                    qname=str(testbed.query_name), warmup=warmup,
                    deployment=testbed.key)
            try:
                result = yield from stub.query(
                    testbed.query_name,
                    ctx=span.context if span is not None else None)
            except (QueryTimeout, WireFormatError):
                result = None  # every attempt failed
            finished = sim.now
            status = "TIMEOUT" if result is None else result.status
            if tel is not None:
                tel.tracer.end(span, status=status)
                if not warmup and result is not None:
                    tel.metrics.histogram(
                        "repro_lookup_latency_ms",
                        "measured DNS lookup latency").observe(
                            finished - started)
            if not warmup:
                if result is None:
                    total, wireless, addresses = finished - started, 0.0, []
                else:
                    wireless = _wireless_portion(crossings, started, finished)
                    total, addresses = result.query_time_ms, result.addresses
                measurements.append(QueryMeasurement(
                    latency_ms=total,
                    wireless_ms=wireless,
                    resolver_ms=max(total - wireless, 0.0),
                    addresses=addresses,
                    status=status,
                    started_at=started,
                    trace_id=(span.trace_id if span is not None
                              else None)))
            yield SPACING_MS

    sim.run_until_resolved(sim.spawn(driver()))
    gateway.crossings = None
    return measurements


def _wireless_portion(crossings: List[float], started: float,
                      finished: float) -> float:
    """UE<->P-GW time: first gateway crossing out + last crossing back."""
    inside = [time for time in crossings if started <= time <= finished]
    if not inside:
        # The gateway never saw the packets (a degenerate topology);
        # attribute everything to the resolver side.
        return 0.0
    outbound = min(inside) - started
    inbound = finished - max(inside)
    return max(outbound, 0.0) + max(inbound, 0.0)
