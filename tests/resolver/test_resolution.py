"""End-to-end resolution tests over the miniature internet fixture."""

import pytest

from repro.dnswire import (ClientSubnet, Edns, Name, RecordType,
                           ResourceRecord, cached_wire)
from repro.dnswire.rdata import GenericRdata
from repro.errors import QueryTimeout
from repro.netsim.engine import ProcessFailed
from repro.netsim import Constant
from repro.netsim.packet import Endpoint
from repro.mec.coredns import stub_domain_upstream
from repro.resolver import (CachePlugin, ChainServer, ForwardPlugin,
                            RetryPolicy, StubResolver)

from tests.resolver.conftest import MiniInternet


class TestAuthoritativeDirect:
    """Query the authoritative server directly (no L-DNS between)."""

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


class TestOneExchange:
    """Every answer arrives whole in one datagram exchange: the fabric has
    no size limit, so a server never truncates and a client never
    retries over another transport."""

    def test_large_answer_without_edns_arrives_whole(self, internet):
        # Four 200-octet character-strings and one of 100: a 900-octet
        # TXT answer, asked for without EDNS (the classic 512 limit).
        text = (b"\xc8" + b"t" * 200) * 4 + b"\x63" + b"t" * 99
        zone = internet.auth_server.zones[Name("example.com")]
        zone.add(ResourceRecord(Name("big.example.com"), RecordType.TXT, 300,
                                GenericRdata(text, int(RecordType.TXT))))
        served = []
        handle_query = internet.auth_server.handle_query
        internet.auth_server.handle_query = \
            lambda *args: served.append(args) or handle_query(*args)
        stub = StubResolver(internet.net, internet.net.host("resolver"),
                            internet.auth_server.endpoint)
        future = internet.sim.spawn(
            stub.query(Name("big.example.com"), RecordType.TXT))
        result = internet.sim.run_until_resolved(future)
        assert result.response.edns is None
        assert not result.response.flags.tc
        assert [record.rdata.data for record in result.response.answers] \
            == [text]
        assert len(cached_wire(result.response)) > 900
        # One query answered once, in one 10 ms round trip.
        assert (len(served), stub.queries_issued) == (1, 1)
        assert result.query_time_ms < 2 * 10


class TestRecursiveResolution:
    """The L-DNS's recursive service as the stub sees it: RD in, RA out,
    answered from the cache or through the forward plugin."""

    def test_second_query_served_from_cache(self, internet):
        first = internet.run_query("www.example.com")
        second = internet.run_query("www.example.com")
        assert second.addresses == first.addresses
        # Cache hit: only the client<->resolver hop plus processing remains.
        assert second.query_time_ms < 5
        assert second.query_time_ms < first.query_time_ms / 5

    def test_cname_followed_across_zones(self, internet):
        result = internet.run_query("external.example.com")
        assert result.addresses == ["198.18.0.7"]
        assert result.response.answers[0].rtype == RecordType.CNAME

    def test_nxdomain_propagates_and_is_negative_cached(self, internet):
        first = internet.run_query("ghost.example.com")
        assert first.status == "NXDOMAIN"
        sent_before = internet.forward.forwarded
        second = internet.run_query("ghost.example.com")
        assert second.status == "NXDOMAIN"
        assert internet.forward.forwarded == sent_before

    def test_nodata_negative_cached(self, internet):
        internet.run_query("www.example.com", RecordType.AAAA)
        sent_before = internet.forward.forwarded
        result = internet.run_query("www.example.com", RecordType.AAAA)
        assert result.status == "NOERROR"
        assert not result.response.answers
        assert internet.forward.forwarded == sent_before

    def test_recursion_available_flag_set(self, internet):
        result = internet.run_query("www.example.com")
        assert result.response.flags.ra

    def test_ttl_expiry_triggers_refetch(self, internet):
        internet.run_query("www.example.com")
        sent_before = internet.forward.forwarded
        # www's TTL is 600 s; past it the cache asks upstream again.
        internet.sim.run(until=internet.sim.now + 700 * 1000)
        result = internet.run_query("www.example.com")
        assert (result.addresses, result.stale) == (["203.0.113.80"], False)
        assert internet.forward.forwarded == sent_before + 1


class TestEcsResolution:
    def test_client_supplied_ecs_passes_through(self):
        internet = MiniInternet()
        ecs = ClientSubnet("10.0.0.0", 24)
        result = internet.run_query("www.example.com",
                                    edns=Edns(options=[ecs]))
        assert result.status == "NOERROR"


class TestForwarder:
    """A public L-DNS: the cache → forward plugin chain behind one socket."""

    def build(self, internet, host="fwd", ip="10.0.0.54", upstream=None):
        internet.net.add_host(host, ip)
        internet.net.add_link("client", host, Constant(1))
        internet.net.add_link(host, "resolver", Constant(2))
        self.cache = CachePlugin()
        self.forward = ForwardPlugin(upstream or internet.resolver.endpoint)
        server = ChainServer(internet.net, internet.net.host(host),
                             [self.cache, self.forward])
        return StubResolver(internet.net, internet.net.host("client"),
                            server.endpoint)

    def run(self, internet, stub, name, rtype=RecordType.A):
        future = internet.sim.spawn(stub.query(Name(name), rtype))
        return internet.sim.run_until_resolved(future)

    def test_forwards_to_upstream(self, internet):
        stub = self.build(internet)
        result = self.run(internet, stub, "www.example.com")
        assert result.addresses == ["203.0.113.80"]
        assert self.forward.forwarded == 1

    def test_caches_forwarded_answers(self, internet):
        stub = self.build(internet)
        self.run(internet, stub, "www.example.com")
        result = self.run(internet, stub, "www.example.com")
        assert result.addresses == ["203.0.113.80"]
        assert self.forward.forwarded == 1
        assert self.cache.cache.hits == 1

    def test_longest_stub_domain_wins(self, internet):
        # The paper's stub domain is the CoreDNS L-DNS's; this is its rule.
        domains = {Name("com"): internet.resolver.endpoint,
                   Name("example.com"): internet.auth_server.endpoint}
        assert stub_domain_upstream(domains, Name("www.example.com")) == \
            internet.auth_server.endpoint
        assert stub_domain_upstream(domains, Name("other.com")) == \
            internet.resolver.endpoint
        assert stub_domain_upstream(domains, Name("example.org")) is None

    def test_dead_upstream_yields_servfail(self, internet):
        stub = self.build(internet, "fwd2", "10.0.0.55",
                          upstream=Endpoint("10.9.9.9", 53))  # unroutable
        result = self.run(internet, stub, "www.example.com")
        assert result.status == "SERVFAIL"
        # The relay's own SERVFAIL carries no RA (CoreDNS's rule).
        assert not result.response.flags.ra

    def test_negative_answers_cached(self, internet):
        stub = self.build(internet)
        self.run(internet, stub, "ghost.example.com")
        result = self.run(internet, stub, "ghost.example.com")
        assert result.status == "NXDOMAIN"
        assert self.forward.forwarded == 1


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
