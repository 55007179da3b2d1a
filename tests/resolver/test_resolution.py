"""End-to-end resolution tests over the miniature internet fixture."""

import pytest

from repro.dnswire import ClientSubnet, Edns, Name, RecordType
from repro.errors import QueryTimeout
from repro.netsim.engine import ProcessFailed
from repro.netsim import Constant
from repro.netsim.packet import Endpoint
from repro.resolver import ForwardingResolver, RetryPolicy, StubResolver

from tests.resolver.conftest import MiniInternet


class TestAuthoritativeDirect:
    """Query the authoritative server directly (no recursion)."""

    def query_auth(self, internet, name, rtype=RecordType.A):
        stub = StubResolver(internet.net, internet.net.host("resolver"),
                            internet.auth_server.endpoint)
        future = internet.sim.spawn(stub.query(Name(name), rtype))
        return internet.sim.run_until_resolved(future)

    def test_a_record(self, internet):
        result = self.query_auth(internet, "www.example.com")
        assert result.status == "NOERROR"
        assert result.addresses == ["203.0.113.80"]
        assert result.response.flags.aa

    def test_cname_chased_across_hosted_zones(self, internet):
        result = self.query_auth(internet, "external.example.com")
        # auth hosts both example.com and cdn.net, so it returns the chain.
        assert result.addresses == ["198.18.0.7"]
        types = [record.rtype for record in result.response.answers]
        assert types == [RecordType.CNAME, RecordType.A]

    def test_nxdomain_with_soa(self, internet):
        result = self.query_auth(internet, "missing.example.com")
        assert result.status == "NXDOMAIN"
        assert result.response.authorities[0].rtype == RecordType.SOA

    def test_nodata(self, internet):
        result = self.query_auth(internet, "www.example.com", RecordType.AAAA)
        assert result.status == "NOERROR"
        assert not result.response.answers

    def test_out_of_authority_refused(self, internet):
        result = self.query_auth(internet, "www.unrelated.org")
        assert result.status == "REFUSED"


class TestRecursiveResolution:
    def test_full_iterative_walk(self, internet):
        result = internet.run_query("www.example.com")
        assert result.status == "NOERROR"
        assert result.addresses == ["203.0.113.80"]
        # Walk: client->resolver (1ms), then root, tld, auth at 5ms each.
        # 3 upstream round trips * 10ms + client round trip 2ms + processing.
        assert result.query_time_ms > 30

    def test_second_query_served_from_cache(self, internet):
        first = internet.run_query("www.example.com")
        second = internet.run_query("www.example.com")
        assert second.addresses == first.addresses
        # Cache hit: only the client<->resolver hop plus processing remains.
        assert second.query_time_ms < 5
        assert second.query_time_ms < first.query_time_ms / 5

    def test_sibling_name_reuses_delegations(self, internet):
        internet.run_query("www.example.com")
        sent_before = internet.resolver.upstream_queries_sent
        result = internet.run_query("alias.example.com")
        assert result.addresses == ["203.0.113.80"]
        # Only the authoritative server needed to be asked again.
        assert internet.resolver.upstream_queries_sent == sent_before + 1

    def test_cname_followed_across_zones(self, internet):
        result = internet.run_query("external.example.com")
        assert result.addresses == ["198.18.0.7"]
        assert result.response.answers[0].rtype == RecordType.CNAME

    def test_nxdomain_propagates_and_is_negative_cached(self, internet):
        first = internet.run_query("ghost.example.com")
        assert first.status == "NXDOMAIN"
        sent_before = internet.resolver.upstream_queries_sent
        second = internet.run_query("ghost.example.com")
        assert second.status == "NXDOMAIN"
        assert internet.resolver.upstream_queries_sent == sent_before

    def test_nodata_negative_cached(self, internet):
        internet.run_query("www.example.com", RecordType.AAAA)
        sent_before = internet.resolver.upstream_queries_sent
        result = internet.run_query("www.example.com", RecordType.AAAA)
        assert result.status == "NOERROR"
        assert not result.response.answers
        assert internet.resolver.upstream_queries_sent == sent_before

    def test_recursion_available_flag_set(self, internet):
        result = internet.run_query("www.example.com")
        assert result.response.flags.ra

    def test_unresolvable_tld_servfail(self, internet):
        result = internet.run_query("www.nowhere.invalid")
        assert result.status in ("SERVFAIL", "NXDOMAIN")

    def test_ttl_expiry_triggers_refetch(self, internet):
        internet.run_query("www.example.com")
        sent_before = internet.resolver.upstream_queries_sent
        # www TTL is 600s; advance past it.
        internet.sim.run(until=internet.sim.now + 700 * 1000)
        internet.run_query("www.example.com")
        assert internet.resolver.upstream_queries_sent > sent_before


class TestEcsResolution:
    def test_ecs_forwarded_and_answer_correct(self):
        internet = MiniInternet(ecs_enabled=True)
        result = internet.run_query("www.example.com")
        assert result.addresses == ["203.0.113.80"]

    def test_client_supplied_ecs_passes_through(self):
        internet = MiniInternet(ecs_enabled=True)
        ecs = ClientSubnet("10.0.0.0", 24)
        result = internet.run_query("www.example.com",
                                    edns=Edns(options=[ecs]))
        assert result.status == "NOERROR"


class TestForwarder:
    def build(self, internet, stub_domains=None):
        internet.net.add_host("fwd", "10.0.0.54")
        internet.net.add_link("client", "fwd", Constant(1))
        internet.net.add_link("fwd", "resolver", Constant(2))
        forwarder = ForwardingResolver(
            internet.net, internet.net.host("fwd"),
            upstreams=[internet.resolver.endpoint],
            stub_domains=stub_domains)
        stub = StubResolver(internet.net, internet.net.host("client"),
                            forwarder.endpoint)
        return forwarder, stub

    def run(self, internet, stub, name, rtype=RecordType.A):
        future = internet.sim.spawn(stub.query(Name(name), rtype))
        return internet.sim.run_until_resolved(future)

    def test_forwards_to_upstream(self, internet):
        forwarder, stub = self.build(internet)
        result = self.run(internet, stub, "www.example.com")
        assert result.addresses == ["203.0.113.80"]
        assert forwarder.forwarded == 1

    def test_caches_forwarded_answers(self, internet):
        forwarder, stub = self.build(internet)
        self.run(internet, stub, "www.example.com")
        result = self.run(internet, stub, "www.example.com")
        assert result.addresses == ["203.0.113.80"]
        assert forwarder.forwarded == 1
        assert forwarder.served_from_cache == 1

    def test_stub_domain_routes_to_dedicated_upstream(self, internet):
        # Route example.com queries straight to the authoritative server,
        # mirroring the paper's CoreDNS stub-domain configuration.
        forwarder, stub = self.build(
            internet,
            stub_domains={Name("example.com"): internet.auth_server.endpoint})
        result = self.run(internet, stub, "www.example.com")
        assert result.addresses == ["203.0.113.80"]
        assert internet.resolver.upstream_queries_sent == 0

    def test_longest_stub_domain_wins(self, internet):
        forwarder, stub = self.build(
            internet,
            stub_domains={Name("com"): internet.resolver.endpoint,
                          Name("example.com"): internet.auth_server.endpoint})
        assert forwarder.upstreams_for(Name("www.example.com")) == \
            [internet.auth_server.endpoint]
        assert forwarder.upstreams_for(Name("other.com")) == \
            [internet.resolver.endpoint]

    def test_dead_upstream_yields_servfail(self, internet):
        internet.net.add_host("fwd2", "10.0.0.55")
        internet.net.add_link("client", "fwd2", Constant(1))
        forwarder = ForwardingResolver(
            internet.net, internet.net.host("fwd2"),
            upstreams=[Endpoint("10.9.9.9", 53)],  # unroutable
            upstream_timeout=50)
        stub = StubResolver(internet.net, internet.net.host("client"),
                            forwarder.endpoint)
        result = self.run(internet, stub, "www.example.com")
        assert result.status == "SERVFAIL"

    def test_negative_answers_cached(self, internet):
        forwarder, stub = self.build(internet)
        self.run(internet, stub, "ghost.example.com")
        result = self.run(internet, stub, "ghost.example.com")
        assert result.status == "NXDOMAIN"
        assert forwarder.forwarded == 1


class TestStubBehaviour:
    def test_retries_then_raises(self, internet):
        stub = StubResolver(internet.net, internet.net.host("client"),
                            Endpoint("10.99.0.1", 53),  # unroutable
                            policy=RetryPolicy(retries=2, timeout_ms=20,
                                               backoff=1.0))
        future = internet.sim.spawn(stub.query(Name("x.example.com")))
        with pytest.raises(ProcessFailed) as excinfo:
            internet.sim.run_until_resolved(future)
        assert isinstance(excinfo.value.__cause__, QueryTimeout)
        assert stub.queries_issued == 3
        assert internet.sim.now >= 60  # three timeouts back to back

    def test_attempts_recorded(self, internet):
        result = internet.run_query("www.example.com")
        assert result.attempts == 1
