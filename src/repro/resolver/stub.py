"""The client-side stub resolver and its ``dig``-style result.

:class:`DigResult` carries exactly what the paper reads off ``dig``:
status, the answer section, and the query time in milliseconds.  The
experiments (Figures 2 and 5) are built from sequences of these results.

Every stub holds one :class:`~repro.resolver.retry.RetryPolicy` — the
only way to say how long it waits and how often it retries.  The default
is three 3-second attempts with no backoff and no jitter; a richer
policy adds exponential backoff and jitter and a hedged second query
racing the first attempt.  SERVFAIL responses are
retried like transport failures — a resolver that answered "I am
broken" is no more settled than one that said nothing.

A stub may also hold a ``fallback`` resolver: §3's "forwarded to L-DNS
on timeout from MEC DNS".  Attempt 1 goes to ``server`` and every later
attempt to ``fallback``, the way a client with a secondary nameserver
moves on; a REFUSED from ``server`` (a name outside the MEC split
namespace) is then as unsettled as a SERVFAIL.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.dnswire.message import Message, ResourceRecord, make_query
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.errors import QueryTimeout, WireFormatError
from repro.netsim.engine import ProcessFailed, SimFuture
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint
from repro.resolver.exchange import exchange
from repro.resolver.retry import RetryPolicy
from repro.telemetry.trace import ERROR_NAME, EndOnError


class DigResult:
    """One completed DNS lookup as seen by the client.

    ``server`` is the resolver that answered: the stub's own, or its
    ``fallback``.
    """

    __slots__ = ("question_name", "rtype", "response", "query_time_ms",
                 "server", "attempts", "started_at")

    def __init__(self, question_name: Name, rtype: RecordType,
                 response: Message, query_time_ms: float, server: Endpoint,
                 attempts: int, started_at: float) -> None:
        self.question_name = question_name
        self.rtype = rtype
        self.response = response
        self.query_time_ms = query_time_ms
        self.server = server
        self.attempts = attempts
        self.started_at = started_at

    @property
    def status(self) -> str:
        return self.response.rcode.name

    @property
    def addresses(self) -> List[str]:
        return self.response.answer_addresses()

    @property
    def stale(self) -> bool:
        """Whether the answer was served past its TTL (RFC 8767).

        Stale answers carry the RFC 8914 "Stale Answer" extended error
        option, which is how a real resolver marks them on the wire.
        """
        edns = self.response.edns
        if edns is None:
            return False
        ede = edns.extended_error
        return ede is not None and ede.is_stale_answer

    def __repr__(self) -> str:
        flavor = " (stale)" if self.stale else ""
        return (f"DigResult({self.question_name} {self.rtype.name} -> "
                f"{self.status} {self.addresses}{flavor} "
                f"in {self.query_time_ms:.2f}ms)")


class StubResolver:
    """Issues queries from a client host to a configured resolver."""

    def __init__(self, network: Network, host: Host, server: Endpoint,
                 policy: Optional[RetryPolicy] = None,
                 fallback: Optional[Endpoint] = None) -> None:
        self.network = network
        self.host = host
        self.server = server
        self.fallback = fallback
        self.policy = policy or RetryPolicy(retries=2, timeout_ms=3000.0,
                                            backoff=1.0)
        self._rng = network.streams.stream(f"stub:{host.name}")
        self.queries_issued = 0
        self.timeouts_seen = 0
        self.servfails_seen = 0
        self.hedges_sent = 0

    def _count(self, metric: str, help: str) -> None:
        tel = self.network.telemetry
        if tel is not None:
            tel.metrics.counter(metric, help).inc(client=self.host.name)

    def query(self, name: Name, rtype: RecordType = RecordType.A,
              authorities: Optional[List["ResourceRecord"]] = None,
              ctx=None) -> Generator:
        """Process returning a :class:`DigResult` (raises QueryTimeout).

        ``authorities`` lets callers put records in the request's
        authority section — IXFR carries the client's current SOA there.
        ``ctx`` optionally joins an existing telemetry trace.
        """
        tel = self.network.telemetry
        if tel is None:
            result = yield from self._query_impl(name, rtype, authorities,
                                                 None)
            return result
        span = tel.tracer.begin("stub.query", "resolver", self.host.name,
                                parent=ctx, qname=str(name),
                                rtype=rtype.name, server=str(self.server))
        tel.metrics.counter("repro_stub_lookups_total",
                            "client lookups started").inc(
                                client=self.host.name)
        with EndOnError(tel.tracer, span,
                        on_error=lambda kind: tel.metrics.counter(
                            "repro_stub_failures_total",
                            "lookups that exhausted every retry").inc(
                                kind=kind),
                        status="FAILED", error=ERROR_NAME):
            result = yield from self._query_impl(
                name, rtype, authorities, span.context)
        tel.tracer.end(span, status=result.status,
                       attempts=result.attempts, stale=result.stale)
        return result

    def _query_impl(self, name: Name, rtype: RecordType,
                    authorities: Optional[List["ResourceRecord"]],
                    ctx) -> Generator:
        policy = self.policy
        target, fallback = self.server, self.fallback
        started_at = self.network.sim.now
        last_error: Optional[Exception] = None
        unsettled: Optional[DigResult] = None
        attempt = 0
        try:
            while True:
                attempt += 1
                per_try_timeout = policy.timeout_for(attempt, self._rng)
                msg_id = self._rng.randrange(1, 0xFFFF)
                try:
                    if policy.hedge_after_ms is not None and attempt == 1:
                        response = yield from self._hedged_probe(
                            name, rtype, authorities, target,
                            per_try_timeout, msg_id, ctx=ctx)
                    else:
                        response = yield from self._probe(
                            name, rtype, authorities, target,
                            per_try_timeout, msg_id, attempt=attempt, ctx=ctx)
                except QueryTimeout as error:
                    self.timeouts_seen += 1
                    self._count("repro_stub_timeouts_total",
                                "per-attempt timeouts burned")
                    last_error = error
                except WireFormatError as error:
                    last_error = error
                else:
                    result = DigResult(
                        question_name=name, rtype=rtype, response=response,
                        query_time_ms=self.network.sim.now - started_at,
                        server=target, attempts=attempt, started_at=started_at)
                    # SERVFAIL, and the first server's REFUSED when there
                    # is a fallback to ask, are as unsettled as silence:
                    # retry while the policy allows, but keep the response
                    # so exhaustion returns the verdict instead of raising.
                    if response.rcode == Rcode.SERVFAIL:
                        self.servfails_seen += 1
                        self._count("repro_stub_servfails_total",
                                    "SERVFAIL responses absorbed by retries")
                    elif (response.rcode != Rcode.REFUSED or fallback is None
                          or attempt > 1):
                        return result
                    unsettled = result
                    last_error = None
                if not policy.may_retry(attempt):
                    break
                if fallback is not None:
                    target = fallback
            if unsettled is not None:
                return unsettled
            raise last_error if last_error is not None else QueryTimeout(
                f"query for {name} failed")
        finally:
            # Every error caught above carries a traceback that holds this
            # frame; a local that points back at one closes a cycle only
            # the collector can free, however the lookup ended.
            last_error = None

    # -- probes -----------------------------------------------------------------

    def _probe(self, name: Name, rtype: RecordType,
               authorities: Optional[List[ResourceRecord]], target: Endpoint,
               per_try_timeout: float, msg_id: int, attempt: int = 1,
               ctx=None, hedge: bool = False) -> Generator:
        """Process: one query/response round."""
        query = make_query(name, rtype, msg_id=msg_id)
        if authorities:
            query.authorities = list(authorities)
        self.queries_issued += 1
        tel = self.network.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.begin("stub.attempt", "resolver",
                                    self.host.name, parent=ctx,
                                    attempt=attempt, hedge=hedge,
                                    server=str(target))
            tel.metrics.counter("repro_stub_attempts_total",
                                "client transmissions").inc(
                                    server=target.ip)
        with EndOnError(tel.tracer if tel is not None else None, span,
                        outcome=ERROR_NAME):
            response = yield from exchange(
                self.host, query, target, per_try_timeout,
                ctx=span.context if span is not None else ctx)
        if tel is not None:
            tel.tracer.end(span, outcome=response.rcode.name)
        return response

    def _hedged_probe(self, name: Name, rtype: RecordType,
                      authorities: Optional[List[ResourceRecord]],
                      target: Endpoint, per_try_timeout: float,
                      msg_id: int, ctx=None) -> Generator:
        """Process: race the probe against a delayed identical hedge."""
        sim = self.network.sim
        hedge_msg_id = self._rng.randrange(1, 0xFFFF)
        primary = sim.spawn(self._probe(
            name, rtype, authorities, target, per_try_timeout, msg_id,
            ctx=ctx))
        hedge = sim.spawn(self._hedge_after(
            primary, name, rtype, authorities, target,
            per_try_timeout, hedge_msg_id, ctx=ctx))
        try:
            response = yield sim.first_success([primary, hedge])
        except ProcessFailed as error:
            cause = error.__cause__
            if isinstance(cause, (QueryTimeout, WireFormatError)):
                raise cause
            raise
        return response

    def _hedge_after(self, primary: SimFuture, name: Name, rtype: RecordType,
                     authorities: Optional[List[ResourceRecord]],
                     target: Endpoint, per_try_timeout: float,
                     msg_id: int, ctx=None) -> Generator:
        yield self.policy.hedge_after_ms
        if primary.done and primary.error is None:
            raise QueryTimeout("hedge not needed; primary already answered")
        self.hedges_sent += 1
        self._count("repro_stub_hedges_total",
                    "hedged second queries actually transmitted")
        response = yield from self._probe(
            name, rtype, authorities, target, per_try_timeout, msg_id,
            ctx=ctx, hedge=True)
        return response
