"""Tests for the client fallback strategies (multicast, timeout)."""

import pytest

from repro.core import FallbackClient
from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec.namespaces import NamespacePolicy, SplitNamespacePlugin
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.netsim.engine import ProcessFailed
from repro.resolver import AuthoritativeServer


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
        self.client = FallbackClient(
            self.net, self.net.host("ue"),
            mec_dns=Endpoint("10.96.0.10", 53),
            provider_ldns=Endpoint("203.0.113.10", 53),
            mec_timeout=30)

    def run(self, strategy, name):
        method = getattr(self.client, strategy)
        future = self.sim.spawn(method(Name(name)))
        return self.sim.run_until_resolved(future)


class TestRace:
    def test_mec_wins_for_cdn_domain(self):
        scenario = FallbackScenario()
        result = scenario.run("race", "video.mycdn.ciab.test")
        assert result.addresses == ["10.233.1.10"]
        assert not result.used_fallback
        assert result.latency_ms < 10
        assert scenario.client.mec_wins == 1

    def test_provider_wins_for_non_mec_domain(self):
        scenario = FallbackScenario()
        result = scenario.run("race", "video.example.com")
        assert result.addresses == ["198.18.0.2"]
        assert result.used_fallback
        assert scenario.client.provider_wins == 1

    def test_race_overhead_small_for_non_mec_content(self):
        # The paper: fallback "adds only a small overhead" for non-MEC
        # names.  With multicast the overhead is zero extra round trips.
        scenario = FallbackScenario()
        result = scenario.run("race", "video.example.com")
        assert result.latency_ms == pytest.approx(80, abs=10)

    def test_race_when_mec_is_silent(self):
        scenario = FallbackScenario(mec_silent_for_other=True)
        result = scenario.run("race", "video.example.com")
        assert result.addresses == ["198.18.0.2"]


class TestTimeoutFallback:
    def test_mec_answers_directly(self):
        scenario = FallbackScenario()
        result = scenario.run("timeout_fallback", "video.mycdn.ciab.test")
        assert result.addresses == ["10.233.1.10"]
        assert not result.used_fallback

    def test_refused_triggers_fallback_immediately(self):
        scenario = FallbackScenario()
        result = scenario.run("timeout_fallback", "video.example.com")
        assert result.addresses == ["198.18.0.2"]
        assert result.used_fallback
        # REFUSED comes back in ~6ms, so total is ~6 + 80.
        assert result.latency_ms < 100

    def test_silent_mec_costs_the_timeout(self):
        scenario = FallbackScenario(mec_silent_for_other=True)
        result = scenario.run("timeout_fallback", "video.example.com")
        assert result.used_fallback
        assert result.latency_ms == pytest.approx(30 + 80, abs=12)

    def test_both_dead_raises(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(4))
        net.add_host("ue", "10.45.0.2")
        client = FallbackClient(net, net.host("ue"),
                                mec_dns=Endpoint("10.96.0.10", 53),
                                provider_ldns=Endpoint("203.0.113.10", 53),
                                mec_timeout=20, total_timeout=50)
        future = sim.spawn(client.timeout_fallback(Name("x.test")))
        with pytest.raises(ProcessFailed):
            sim.run_until_resolved(future)
