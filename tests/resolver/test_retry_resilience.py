"""Tests for retry policies, serve-stale, and timeouts that leave no cycle."""

import gc
from types import SimpleNamespace

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType, Rcode
from repro.dnswire.message import ResourceRecord, make_response
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.chain import CachePlugin, ChainServer, ForwardPlugin
from repro.resolver.server import DnsServer, UPSTREAM_TIMEOUT_MS
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver
from repro.resolver.cache import STALE_ANSWER_TTL

QNAME = Name("www.example.com")

#: A ``Link.loss_model`` that swallows every packet while installed.
BLACKHOLE = SimpleNamespace(lost=lambda rng: True)


def build_zone():
    zone = Zone(Name("example.com"))
    zone.add(ResourceRecord(Name("example.com"), RecordType.SOA, 300,
                            SOA(Name("ns.example.com"),
                                Name("a.example.com"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name("example.com"), RecordType.NS, 300,
                            NS(Name("ns.example.com"))))
    zone.add(ResourceRecord(QNAME, RecordType.A, 300, A("198.18.0.9")))
    return zone


class TestRetryPolicy:
    def test_backoff_sequence_with_clamp(self):
        policy = RetryPolicy(retries=4, timeout_ms=100, backoff=2.0,
                             max_timeout_ms=300)
        assert [policy.timeout_for(n) for n in (1, 2, 3, 4)] == \
            [100, 200, 300, 300]

    def test_jitter_stays_inside_band_and_varies(self):
        import random
        policy = RetryPolicy(timeout_ms=100, jitter_frac=0.2)
        rng = random.Random(5)
        draws = [policy.timeout_for(1, rng) for _ in range(50)]
        assert all(80 <= draw <= 120 for draw in draws)
        assert len(set(draws)) > 1

    def test_fixed_timeout_policy_is_exact_and_draws_nothing(self):
        # How a plain "T ms, R retries" client is spelled.  It must not
        # touch the stub's stream, or every msg_id after it would move.
        import random
        policy = RetryPolicy(retries=7, timeout_ms=3000.0, backoff=1.0,
                             jitter_frac=0)
        rng = random.Random(5)
        before = rng.getstate()
        assert [policy.timeout_for(n, rng) for n in range(1, 9)] == \
            [3000.0] * 8
        assert rng.getstate() == before

    def test_default_stub_policy_is_three_fixed_3s_attempts(self):
        world = ResolverWorld(serve_stale=False)
        policy = world.stub(None).policy
        assert (policy.retries, policy.timeout_ms, policy.backoff,
                policy.jitter_frac) == (2, 3000.0, 1.0, 0.0)

    def test_attempt_count_gate(self):
        policy = RetryPolicy(retries=2, timeout_ms=10)
        assert policy.may_retry(1) and policy.may_retry(2)
        assert not policy.may_retry(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(hedge_after_ms=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=10).timeout_for(0)


class ResolverWorld:
    """client -- resolver -- upstream; the resolver is a cache → forward
    chain, with serve-stale when asked."""

    def __init__(self, serve_stale=False, seed=31):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.net.add_host("client", "10.0.0.2")
        self.net.add_host("resolver", "10.0.0.53")
        self.net.add_host("upstream", "203.0.113.10")
        self.net.add_link("client", "resolver", Constant(2))
        self.net.add_link("resolver", "upstream", Constant(10))
        AuthoritativeServer(self.net, self.net.host("upstream"),
                            [build_zone()])
        self.cache = CachePlugin(serve_stale=serve_stale)
        self.resolver = ChainServer(
            self.net, self.net.host("resolver"),
            [self.cache, ForwardPlugin(Endpoint("203.0.113.10", 53))])

    def stub(self, policy):
        return StubResolver(self.net, self.net.host("client"),
                            self.resolver.endpoint, policy=policy)

    def ask(self, stub):
        return self.sim.run_until_resolved(self.sim.spawn(stub.query(QNAME)))


class TestServeStale:
    def warm_then_kill_upstream(self, world):
        # Longer than the resolver's one shot upstream, so the stub hears
        # its verdict.
        stub = world.stub(RetryPolicy(retries=0,
                                      timeout_ms=UPSTREAM_TIMEOUT_MS + 500))
        fresh = world.ask(stub)
        assert fresh.addresses == ["198.18.0.9"] and not fresh.stale
        # Let the 300 s TTL lapse, then take the upstream away entirely.
        world.sim.run(until=world.sim.now + 400 * 1000)
        world.net.host("upstream").down = True
        return stub

    def test_stale_answer_served_after_upstream_dies(self):
        world = ResolverWorld(serve_stale=True)
        stub = self.warm_then_kill_upstream(world)
        result = world.ask(stub)
        assert result.status == "NOERROR"
        assert result.addresses == ["198.18.0.9"]
        assert result.stale
        assert world.cache.stale_served == 1

    def test_stale_answer_carries_ede_and_capped_ttl(self):
        world = ResolverWorld(serve_stale=True)
        stub = self.warm_then_kill_upstream(world)
        result = world.ask(stub)
        ede = result.response.edns.extended_error
        assert ede is not None and ede.is_stale_answer
        assert result.response.answers[0].ttl == STALE_ANSWER_TTL

    def test_without_serve_stale_upstream_death_is_servfail(self):
        world = ResolverWorld(serve_stale=False)
        stub = self.warm_then_kill_upstream(world)
        result = world.ask(stub)
        assert result.status == "SERVFAIL"
        assert not result.stale


class TestStubRetries:
    def test_servfail_retried_like_timeout(self):
        world = ResolverWorld(serve_stale=False)
        stub = self.dead_upstream_stub(world, RetryPolicy(
            retries=2, timeout_ms=UPSTREAM_TIMEOUT_MS + 500, backoff=1.0))
        result = world.ask(stub)
        assert result.status == "SERVFAIL"
        assert result.attempts == 3
        assert stub.servfails_seen == 3

    @staticmethod
    def dead_upstream_stub(world, policy):
        world.net.host("upstream").down = True
        return world.stub(policy)

    def test_backoff_timeouts_shape_total_latency(self):
        world = ResolverWorld()
        world.net.host("resolver").down = True  # total silence
        stub = world.stub(policy=RetryPolicy(retries=2, timeout_ms=50,
                                             backoff=2.0))
        started = world.sim.now
        with pytest.raises(ProcessFailed):
            world.ask(stub)
        # 50 + 100 + 200 ms of per-attempt timeouts, no jitter.
        assert world.sim.now - started == pytest.approx(350.0)
        assert stub.timeouts_seen == 3

    def test_hedge_fires_when_primary_is_slow(self):
        world = ResolverWorld()
        stub = world.stub(policy=RetryPolicy(retries=0, timeout_ms=500,
                                             hedge_after_ms=1.0))
        result = world.ask(stub)
        assert result.status == "NOERROR"
        assert stub.hedges_sent == 1
        assert result.attempts == 1

    def test_hedge_recovers_lost_primary_without_full_timeout(self):
        world = ResolverWorld()
        link = world.net.link_between("client", "resolver")
        link.loss_model = BLACKHOLE  # swallow the primary packet...
        world.sim.call_at(5.0, lambda: setattr(link, "loss_model", None))
        stub = world.stub(policy=RetryPolicy(retries=0, timeout_ms=500,
                                             hedge_after_ms=10.0))
        result = world.ask(stub)
        assert result.status == "NOERROR"
        assert stub.hedges_sent == 1
        # ...and the hedge answered well before the 500 ms timeout.
        assert result.query_time_ms < 100


class Verdict(DnsServer):
    """Answers every question with one fixed rcode (and an A on NOERROR)."""

    def __init__(self, network, host, rcode):
        super().__init__(network, host)
        self.rcode = rcode

    def handle_query(self, query, client, trace):
        answers = ([ResourceRecord(query.question.name, RecordType.A, 300,
                                   A(self.host.address))]
                   if self.rcode == Rcode.NOERROR else [])
        return make_response(query, rcode=self.rcode, answers=answers)


class TestStubFallback:
    """Attempt 1 goes to ``server``, every later attempt to ``fallback``.

    ``server``'s REFUSED is unsettled only when a fallback can be asked;
    the fallback's REFUSED is final, and an unsettled verdict is kept,
    not raised, when attempts run out.
    """

    SERVER, FALLBACK = Endpoint("10.96.0.10", 53), Endpoint("203.0.113.10", 53)

    @pytest.mark.parametrize(
        "server_rcode, fallback_rcode, retries, status, attempts, answerer",
        [(Rcode.REFUSED, Rcode.NOERROR, 1, "NOERROR", 2, FALLBACK),
         (Rcode.SERVFAIL, Rcode.NOERROR, 1, "NOERROR", 2, FALLBACK),
         (Rcode.REFUSED, Rcode.REFUSED, 2, "REFUSED", 2, FALLBACK),
         (Rcode.REFUSED, None, 2, "REFUSED", 1, SERVER),
         (Rcode.REFUSED, Rcode.NOERROR, 0, "REFUSED", 1, SERVER),
         (Rcode.NXDOMAIN, Rcode.NOERROR, 2, "NXDOMAIN", 1, SERVER),
         (Rcode.REFUSED, Rcode.SERVFAIL, 2, "SERVFAIL", 3, FALLBACK),
         (Rcode.SERVFAIL, None, 1, "SERVFAIL", 2, SERVER)],
        ids=["refused-moves-on", "servfail-moves-on",
             "fallback-refused-is-final", "no-fallback-refused-is-final",
             "no-retry-keeps-the-refusal", "nxdomain-is-final",
             "fallback-servfail-is-kept", "no-fallback-servfail-stays"])
    def test_verdicts(self, server_rcode, fallback_rcode, retries, status,
                      attempts, answerer):
        sim = Simulator()
        net = Network(sim, RandomStreams(17))
        net.add_host("client", "10.45.0.2")
        servers = {}
        for name, endpoint, rcode in (
                ("mec-dns", self.SERVER, server_rcode),
                ("provider", self.FALLBACK, fallback_rcode)):
            net.add_host(name, endpoint.ip)
            net.add_link("client", name, Constant(5))
            if rcode is not None:
                servers[endpoint] = Verdict(net, net.host(name), rcode)
        stub = StubResolver(
            net, net.host("client"), self.SERVER,
            RetryPolicy(retries=retries, timeout_ms=100, backoff=1.0),
            fallback=self.FALLBACK if fallback_rcode is not None else None)
        result = sim.run_until_resolved(sim.spawn(stub.query(QNAME)))
        assert (result.status, result.attempts, result.server) == (
            status, attempts, answerer)
        assert stub.queries_issued == attempts
        # Only attempt 1 asks ``server`` when there is a fallback.
        fallback = servers.get(self.FALLBACK)
        assert servers[self.SERVER].queries_received == (
            1 if fallback else attempts)
        if fallback:
            assert fallback.queries_received == attempts - 1
        assert result.addresses == (
            [answerer.ip] if status == "NOERROR" else [])


class TestTimeoutsLeaveNoCycles:
    """A lookup that burned a timeout and still returned frees by refcount.

    ``_query_impl`` keeps the last attempt's error in a local, and the
    error's traceback holds ``_query_impl``'s frame; unless the local is
    dropped on the way out, every such lookup leaves that pair (and the
    probe frames, query and future hanging off it) to the collector.
    Lookups that *die* of their timeouts still leave a cycle, through
    ``_Process._step``'s own locals — not this path, and not asserted.
    """

    LOOKUPS = 20

    @staticmethod
    def collected_after(lookup):
        gc.collect()
        gc.disable()
        try:
            for _ in range(TestTimeoutsLeaveNoCycles.LOOKUPS):
                lookup()
            return gc.collect()
        finally:
            gc.enable()

    def test_timeout_then_answer(self):
        world = ResolverWorld()
        link = world.net.link_between("client", "resolver")
        stub = world.stub(RetryPolicy(retries=2, timeout_ms=50, backoff=1.0))

        def lookup():
            link.loss_model = BLACKHOLE  # first attempt lost, retry not
            world.sim.call_after(40.0, setattr, link, "loss_model", None)
            result = world.ask(stub)
            assert (result.status, result.attempts) == ("NOERROR", 2)

        assert self.collected_after(lookup) == 0
        assert stub.timeouts_seen == self.LOOKUPS

    def test_servfail_then_timeout_returns_the_servfail(self):
        world = ResolverWorld()
        world.net.host("upstream").down = True
        resolver = world.net.host("resolver")
        stub = world.stub(RetryPolicy(retries=1,
                                      timeout_ms=2 * UPSTREAM_TIMEOUT_MS,
                                      backoff=1.0))

        def lookup():
            # The SERVFAIL leaves 2 ms after the resolver's one shot
            # upstream times out and lands 2 ms later; the retry it
            # provokes finds the resolver gone.
            resolver.down = False
            world.sim.call_after(UPSTREAM_TIMEOUT_MS + 3.0, setattr,
                                 resolver, "down", True)
            result = world.ask(stub)
            assert (result.status, result.attempts) == ("SERVFAIL", 1)

        assert self.collected_after(lookup) == 0
        assert stub.timeouts_seen == self.LOOKUPS
