"""CachePlugin: RFC 8767 stale answers inside a control-plane window.

Serve-stale during churn is the dangerous case the churn experiment
measures — a stale answer handed out *while a zone update is still
propagating* may point at an endpoint the orchestrator already removed.
The plugin counts those separately (``stale_served_during_churn``) via
its ``churn_window`` hook, and every stale answer must carry the
RFC 8914 "Stale Answer" extended error so clients can tell.
"""

from repro import telemetry
from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec import CoreDnsServer, Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver import AuthoritativeServer, RetryPolicy, StubResolver

CDN_DOMAIN = "mycdn.ciab.test"
QNAME = f"video.{CDN_DOMAIN}"


def build_zone(address, ttl=30):
    zone = Zone(Name(CDN_DOMAIN))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.SOA, 300,
                            SOA(Name(f"ns.{CDN_DOMAIN}"),
                                Name(f"admin.{CDN_DOMAIN}"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.NS, 300,
                            NS(Name(f"ns.{CDN_DOMAIN}"))))
    zone.add(ResourceRecord(Name(QNAME), RecordType.A, ttl, A(address)))
    return zone


class ChurnWindowScenario:
    """client -- CoreDNS(cache, serve-stale) -- C-DNS that can die."""

    def __init__(self, with_telemetry=False):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(23))
        self.tel = (telemetry.Telemetry().attach(self.net)
                    if with_telemetry else None)
        node = self.net.add_host("node-a", "10.40.2.10")
        self.net.add_host("client", "10.40.3.7")
        self.net.add_host("cdns", "10.40.4.4")
        self.net.add_link("client", "node-a", Constant(0.2))
        self.net.add_link("node-a", "cdns", Constant(0.5))
        AuthoritativeServer(self.net, self.net.host("cdns"),
                            [build_zone("10.233.1.10")])
        orch = Orchestrator(self.net, "edge1")
        orch.register_node(node)
        self.coredns = CoreDnsServer(
            self.net, node, orch,
            stub_domains={Name(CDN_DOMAIN): Endpoint("10.40.4.4", 53)},
            serve_stale=True)
        self.cache_plugin = self.coredns.cache_plugin
        assert self.cache_plugin is not None

    def query(self):
        stub = StubResolver(self.net, self.net.host("client"),
                            self.coredns.endpoint,
                            policy=RetryPolicy(retries=0, timeout_ms=8000))
        return self.sim.run_until_resolved(
            self.sim.spawn(stub.query(Name(QNAME))))

    def warm_expire_and_kill_cdns(self):
        fresh = self.query()
        assert fresh.addresses == ["10.233.1.10"] and not fresh.stale
        self.sim.run(until=self.sim.now + 60 * 1000)  # past the 30 s TTL
        self.net.host("cdns").down = True


class TestStaleDuringChurnWindow:
    def test_stale_inside_window_is_counted_and_marked(self):
        scenario = ChurnWindowScenario()
        scenario.warm_expire_and_kill_cdns()
        scenario.cache_plugin.churn_window = lambda: True
        result = scenario.query()
        assert result.status == "NOERROR"
        assert result.addresses == ["10.233.1.10"]
        assert result.stale
        ede = result.response.edns.extended_error
        assert ede is not None and ede.is_stale_answer
        assert scenario.cache_plugin.stale_served == 1
        assert scenario.cache_plugin.stale_served_during_churn == 1

    def test_stale_outside_window_is_not_churn_tainted(self):
        scenario = ChurnWindowScenario()
        scenario.warm_expire_and_kill_cdns()
        scenario.cache_plugin.churn_window = lambda: False
        result = scenario.query()
        assert result.stale
        assert scenario.cache_plugin.stale_served == 1
        assert scenario.cache_plugin.stale_served_during_churn == 0

    def test_no_hook_means_no_churn_accounting(self):
        scenario = ChurnWindowScenario()
        scenario.warm_expire_and_kill_cdns()
        assert scenario.cache_plugin.churn_window is None
        result = scenario.query()
        assert result.stale
        assert scenario.cache_plugin.stale_served_during_churn == 0

    def test_churn_stale_metric_emitted(self):
        scenario = ChurnWindowScenario(with_telemetry=True)
        scenario.warm_expire_and_kill_cdns()
        scenario.cache_plugin.churn_window = lambda: True
        assert scenario.query().stale
        counter = scenario.tel.metrics.counter(
            "repro_coredns_serve_stale_during_churn_total")
        assert sum(value for _, value in counter.samples()) == 1.0
