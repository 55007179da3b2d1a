"""Repeated-query drivers with the paper's wireless/resolver split.

The paper: "We perform the measurements using both dig from the client
side and tcpdump at P-GW to track the DNS request packets", splitting each
lookup into (i) the wireless UE<->P-GW delay and (ii) everything beyond
the P-GW.  :func:`measure_deployment_queries` reproduces this: a
:class:`~repro.netsim.trace.PacketTrace` at the gateway host timestamps
the query and reply as they cross the P-GW; the difference attributes the
round trip to the two segments.

For fault-injection runs, :func:`measure_deployment_run` additionally
reports retry behaviour — attempts per lookup, timeouts burned, hedges
and stale answers — as a :class:`RetryStats`, since under faults *how
hard the client worked* is as load-bearing as the latency itself.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional

from repro.core.deployments import Testbed
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.trace import PacketTrace
from repro.resolver.stub import StubResolver


class QueryMeasurement(NamedTuple):
    """One measured DNS lookup."""

    latency_ms: float
    wireless_ms: float      # UE <-> P-GW portion of the round trip
    resolver_ms: float      # beyond-the-P-GW portion
    addresses: List[str]
    status: str
    started_at: float
    attempts: int = 1       # client transmissions this lookup took
    stale: bool = False     # answer served past its TTL (RFC 8767)
    trace_id: Optional[int] = None  # telemetry trace, when observed


class RetryStats(NamedTuple):
    """Aggregate client-side resilience accounting for one run."""

    queries: int            # lookups attempted (including failed ones)
    answered: int           # lookups that produced any response
    attempts: int           # total transmissions across all lookups
    timeouts_seen: int      # per-attempt timeouts burned
    servfails_seen: int     # SERVFAIL responses absorbed by retries
    stale_answers: int      # answers marked stale (RFC 8914 EDE 3)
    hedges_sent: int        # hedged second queries actually transmitted

    @property
    def mean_attempts(self) -> float:
        """Average transmissions per lookup (1.0 = no retries needed)."""
        return self.attempts / self.queries if self.queries else 0.0


class MeasurementRun(NamedTuple):
    """Measurements plus the retry accounting behind them."""

    measurements: List[QueryMeasurement]
    retries: RetryStats


def measure_deployment_queries(testbed: Testbed, count: int,
                               warmup: int = 1) -> List[QueryMeasurement]:
    """Run ``warmup + count`` sequential queries; return the measured ones.

    Warmup queries let resolvers with warm-cache semantics settle (and
    mirror the practice of discarding the first dig of a session).
    """
    return measure_deployment_run(testbed, count,
                                  warmup=warmup).measurements


def measure_deployment_run(testbed: Testbed, count: int,
                           spacing_ms: float = 500.0,
                           warmup: int = 1,
                           stub: Optional[StubResolver] = None) -> MeasurementRun:
    """Like :func:`measure_deployment_queries`, with retry accounting.

    ``stub`` is the client (default: the UE's plain stub); its
    :class:`~repro.resolver.retry.RetryPolicy` is the retry behaviour.
    A lookup whose every attempt fails — what ``stub.query`` is
    documented to raise, nothing broader — is recorded as a ``TIMEOUT``
    measurement with empty addresses rather than aborting the run:
    under fault injection, failures are data.
    """
    if count <= 0:
        raise ValueError("need a positive query count")
    trace = PacketTrace(testbed.network, host_filter=testbed.gateway_host)
    if stub is None:
        stub = testbed.ue.stub()
    sim = testbed.sim
    measurements: List[QueryMeasurement] = []
    failed = {"queries": 0}

    tel = testbed.network.telemetry

    def driver() -> Generator:
        for index in range(warmup + count):
            trace.clear()
            started = sim.now
            issued_before = stub.queries_issued
            span = None
            if tel is not None:
                span = tel.tracer.begin(
                    "lookup", "measure", "measure-driver",
                    qname=str(testbed.query_name), warmup=index < warmup,
                    deployment=testbed.key)
            try:
                result = yield from stub.query(
                    testbed.query_name,
                    ctx=span.context if span is not None else None)
            except (QueryTimeout, WireFormatError):
                failed["queries"] += 1
                if tel is not None:
                    tel.tracer.end(span, status="TIMEOUT")
                if index >= warmup:
                    measurements.append(QueryMeasurement(
                        latency_ms=sim.now - started,
                        wireless_ms=0.0,
                        resolver_ms=sim.now - started,
                        addresses=[],
                        status="TIMEOUT",
                        started_at=started,
                        attempts=max(1, stub.queries_issued - issued_before),
                        trace_id=(span.trace_id if span is not None
                                  else None)))
                yield spacing_ms
                continue
            finished = sim.now
            if tel is not None:
                tel.tracer.end(span, status=result.status)
                if index >= warmup:
                    tel.metrics.histogram(
                        "repro_lookup_latency_ms",
                        "measured DNS lookup latency").observe(
                            finished - started)
            if index >= warmup:
                wireless = _wireless_portion(trace, started, finished)
                total = result.query_time_ms
                measurements.append(QueryMeasurement(
                    latency_ms=total,
                    wireless_ms=wireless,
                    resolver_ms=max(total - wireless, 0.0),
                    addresses=result.addresses,
                    status=result.status,
                    started_at=started,
                    attempts=result.attempts,
                    stale=result.stale,
                    trace_id=(span.trace_id if span is not None
                              else None)))
            yield spacing_ms

    sim.run_until_resolved(sim.spawn(driver()))
    trace.close()
    total_queries = warmup + count
    stats = RetryStats(
        queries=total_queries,
        answered=total_queries - failed["queries"],
        attempts=stub.queries_issued,
        timeouts_seen=stub.timeouts_seen,
        servfails_seen=stub.servfails_seen,
        stale_answers=sum(1 for m in measurements if m.stale),
        hedges_sent=stub.hedges_sent)
    return MeasurementRun(measurements=measurements, retries=stats)


def _wireless_portion(trace: PacketTrace, started: float,
                      finished: float) -> float:
    """UE<->P-GW time: first gateway crossing out + last crossing back."""
    crossings = [record.time for record in trace.records
                 if record.event in ("forward", "deliver")
                 and started <= record.time <= finished]
    if not crossings:
        # The gateway never saw the packets (a degenerate topology);
        # attribute everything to the resolver side.
        return 0.0
    outbound = min(crossings) - started
    inbound = finished - max(crossings)
    return max(outbound, 0.0) + max(inbound, 0.0)
