"""§3's forward-on-timeout: a stub with the provider L-DNS as fallback."""

import pytest

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.zone import Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec.namespaces import NamespacePolicy, SplitNamespacePlugin
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver

MEC_DNS = Endpoint("10.96.0.10", 53)
PROVIDER = Endpoint("203.0.113.10", 53)


def build_zone(domain, address):
    zone = Zone(Name(domain))
    zone.add(ResourceRecord(Name(domain), RecordType.SOA, 300,
                            SOA(Name(f"ns.{domain}"), Name(f"a.{domain}"),
                                1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(domain), RecordType.NS, 300,
                            NS(Name(f"ns.{domain}"))))
    zone.add(ResourceRecord(Name(f"video.{domain}"), RecordType.A, 300,
                            A(address)))
    return zone


class FallbackScenario:
    """UE with a fast MEC DNS (CDN domain only) and a slow provider L-DNS."""

    def __init__(self, mec_silent_for_other=False):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(8))
        self.net.add_host("ue", "10.45.0.2")
        self.net.add_host("mec-dns", "10.96.0.10")
        self.net.add_host("provider", "203.0.113.10")
        self.net.add_link("ue", "mec-dns", Constant(3))
        self.net.add_link("ue", "provider", Constant(40))
        # The MEC DNS serves only the CDN domain; policy for the rest
        # depends on the experiment (REFUSE vs IGNORE).
        policy = (NamespacePolicy.IGNORE if mec_silent_for_other
                  else NamespacePolicy.REFUSE)
        split = SplitNamespacePlugin(internal_networks=["10.96.0.0/16"],
                                     policy=policy)
        split.register_public(Name("mycdn.ciab.test"))
        self.split = split

        class _FilteredAuthority(AuthoritativeServer):
            """An authoritative MEC DNS behind the namespace policy."""

            def handle_query(self, query, client, trace):
                if not split.is_public(query.question.name):
                    if policy is NamespacePolicy.IGNORE:
                        split.ignored += 1
                        return None
                    split.refused += 1
                    from repro.dnswire.message import make_response
                    from repro.dnswire.types import Rcode
                    return make_response(query, rcode=Rcode.REFUSED)
                return super().handle_query(query, client, trace)

        _FilteredAuthority(self.net, self.net.host("mec-dns"),
                           [build_zone("mycdn.ciab.test", "10.233.1.10")])
        AuthoritativeServer(self.net, self.net.host("provider"),
                            [build_zone("mycdn.ciab.test", "198.18.0.1"),
                             build_zone("example.com", "198.18.0.2")])

    def run(self, name):
        # The MEC DNS gets 30 ms, then the retry gives the provider 3 s.
        stub = StubResolver(self.net, self.net.host("ue"), MEC_DNS,
                            RetryPolicy(retries=1, timeout_ms=30,
                                        backoff=100.0),
                            fallback=PROVIDER)
        return self.sim.run_until_resolved(
            self.sim.spawn(stub.query(Name(name))))


class TestTimeoutFallback:
    def test_mec_answers_directly(self):
        result = FallbackScenario().run("video.mycdn.ciab.test")
        assert result.addresses == ["10.233.1.10"]
        assert result.server == MEC_DNS

    def test_refused_triggers_fallback_immediately(self):
        result = FallbackScenario().run("video.example.com")
        assert result.addresses == ["198.18.0.2"]
        assert result.server == PROVIDER
        # REFUSED comes back in ~6ms, so total is ~6 + 80.
        assert result.query_time_ms < 100

    def test_silent_mec_costs_the_timeout(self):
        scenario = FallbackScenario(mec_silent_for_other=True)
        result = scenario.run("video.example.com")
        assert result.server == PROVIDER
        assert result.query_time_ms == pytest.approx(30 + 80, abs=12)

    def test_both_dead_raises(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(4))
        net.add_host("ue", "10.45.0.2")
        stub = StubResolver(net, net.host("ue"), MEC_DNS,
                            RetryPolicy(retries=1, timeout_ms=20,
                                        backoff=2.5),
                            fallback=PROVIDER)
        future = sim.spawn(stub.query(Name("x.test")))
        with pytest.raises(ProcessFailed):
            sim.run_until_resolved(future)
