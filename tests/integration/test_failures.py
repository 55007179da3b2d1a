"""Failure injection: the MEC-CDN under component loss and lossy links.

The paper claims best-effort behaviour ("end users will observe only a
degradation but not unavailability"); these tests kill pods, cut caches,
and drop radio frames mid-run and assert service continues.
"""


from repro.cdn import ContentCatalog, HttpClient
from repro.core import FallbackClient, MecCdnSite
from repro.dnswire import Name
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver import RetryPolicy, StubResolver


class SiteUnderTest:
    def __init__(self, seed=51, radio_loss=0.0):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        nodes = [self.net.add_host(f"node-{i}", f"10.40.2.{10 + i}")
                 for i in range(2)]
        self.net.add_link("node-0", "node-1", Constant(0.2))
        self.net.add_host("ue", "10.45.0.2")
        self.net.add_link("ue", "node-0", Constant(5), loss=radio_loss)
        self.net.add_host("provider", "203.0.113.10")
        self.net.add_link("node-0", "provider", Constant(30))
        self.net.add_link("ue", "provider", Constant(35))
        self.catalog = ContentCatalog()
        self.item = self.catalog.add_object(
            Name("video.demo1.mycdn.ciab.test"), "/seg1.ts", 100_000)
        self.site = MecCdnSite(self.net, "edge1", nodes, self.catalog,
                               upstream_ldns=Endpoint("203.0.113.10", 53))

    def query(self, timeout=3000, retries=2):
        stub = StubResolver(
            self.net, self.net.host("ue"), self.site.ldns_endpoint,
            policy=RetryPolicy(retries=retries, timeout_ms=timeout,
                               backoff=1.0))
        future = self.sim.spawn(
            stub.query(Name("video.demo1.mycdn.ciab.test")))
        return self.sim.run_until_resolved(future)

    def fetch(self, cache_ip):
        client = HttpClient(self.net, self.net.host("ue"))
        future = self.sim.spawn(client.fetch(self.item.url, cache_ip))
        return self.sim.run_until_resolved(future)


class TestCacheFailure:
    def test_router_skips_dead_cache(self):
        scenario = SiteUnderTest()
        first_ip = scenario.query().addresses[0]
        victim = next(cache for cache in scenario.site.caches
                      if cache.endpoint.ip == first_ip)
        victim.online = False
        rerouted = scenario.query().addresses[0]
        assert rerouted != first_ip
        result = scenario.fetch(rerouted)
        assert result.status == 200

    def test_all_caches_dead_is_servfail_not_hang(self):
        scenario = SiteUnderTest()
        for cache in scenario.site.caches:
            cache.online = False
        result = scenario.query()
        assert result.status == "SERVFAIL"

    def test_dead_cache_recovers(self):
        scenario = SiteUnderTest()
        first_ip = scenario.query().addresses[0]
        victim = next(cache for cache in scenario.site.caches
                      if cache.endpoint.ip == first_ip)
        victim.online = False
        scenario.query()
        victim.online = True
        # Consistent hashing sends the content back to its home cache.
        assert scenario.query().addresses[0] == first_ip


class TestPodFailure:
    def test_cdns_pod_killed_and_replaced(self):
        scenario = SiteUnderTest()
        site = scenario.site
        baseline = scenario.query()
        assert baseline.status == "NOERROR"
        old_pod = site.cdns_pod
        site.orchestrator.deploy_pod(site.cdns_service,
                                     starter=site._start_cdns)
        site.orchestrator.kill_pod(old_pod)
        old_pod.app.sock.close()
        after = scenario.query()
        assert after.status == "NOERROR"
        assert after.addresses[0] in [c.endpoint.ip for c in site.caches]

    def test_ldns_pod_killed_then_fallback_client_survives(self):
        scenario = SiteUnderTest()
        site = scenario.site
        # Kill the CoreDNS pod without a replacement: the MEC DNS is gone.
        site.orchestrator.kill_pod(site.ldns_pod)
        site.ldns.sock.close()
        client = FallbackClient(
            scenario.net, scenario.net.host("ue"),
            mec_dns=site.ldns_endpoint,
            provider_ldns=Endpoint("203.0.113.10", 53),
            mec_timeout=50)
        # The provider cannot answer the MEC-CDN domain (it is not
        # authoritative for it) — but a generic name still resolves, so
        # the user keeps DNS service, degraded, as the paper promises.
        from repro.dnswire import RecordType, ResourceRecord, Zone
        from repro.dnswire.rdata import A, NS, SOA
        zone = Zone(Name("example.com"))
        zone.add(ResourceRecord(Name("example.com"), RecordType.SOA, 300,
                                SOA(Name("ns.example.com"),
                                    Name("a.example.com"), 1, 2, 3, 4, 60)))
        zone.add(ResourceRecord(Name("example.com"), RecordType.NS, 300,
                                NS(Name("ns.example.com"))))
        zone.add(ResourceRecord(Name("www.example.com"), RecordType.A, 300,
                                A("198.18.0.9")))
        from repro.resolver import AuthoritativeServer
        AuthoritativeServer(scenario.net, scenario.net.host("provider"),
                            [zone])
        future = scenario.sim.spawn(
            client.timeout_fallback(Name("www.example.com")))
        result = scenario.sim.run_until_resolved(future)
        assert result.addresses == ["198.18.0.9"]
        assert result.used_fallback


class TestLossyRadio:
    def test_stub_retries_through_loss(self):
        scenario = SiteUnderTest(seed=52, radio_loss=0.25)
        successes = 0
        for _ in range(10):
            result = scenario.query(timeout=200, retries=4)
            if result.status == "NOERROR":
                successes += 1
        assert successes == 10  # retries absorb 25% loss

    def test_loss_costs_latency_not_availability(self):
        clean = SiteUnderTest(seed=53, radio_loss=0.0)
        lossy = SiteUnderTest(seed=53, radio_loss=0.35)
        clean_times = [clean.query(timeout=100, retries=6).query_time_ms
                       for _ in range(8)]
        lossy_times = [lossy.query(timeout=100, retries=6).query_time_ms
                       for _ in range(8)]
        assert max(lossy_times) > max(clean_times)


class TestFillPathFailure:
    def test_unwarmed_cache_with_dead_parent_returns_error(self):
        scenario = SiteUnderTest()
        cache = scenario.site.caches[0]
        # Cold cache pointing at a black-hole parent.
        cache._stored.clear()
        cache.used_bytes = 0
        cache.parent = Endpoint("10.99.99.99", 80)
        from repro.cdn.cache_server import FILL_TIMEOUT_MS
        client = HttpClient(scenario.net, scenario.net.host("ue"),
                            timeout=FILL_TIMEOUT_MS * 2)
        future = scenario.sim.spawn(
            client.fetch(scenario.item.url, cache.endpoint.ip))
        result = scenario.sim.run_until_resolved(future)
        assert result.status == 504  # upstream fill timed out
