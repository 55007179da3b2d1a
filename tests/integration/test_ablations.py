"""Ablations of the design choices DESIGN.md calls out.

Each ablation isolates one decision from §3 of the paper and asserts
what it buys:

* split namespace vs. an exposed internal DNS (attack-surface check);
* C-DNS scope restricted to the edge vs. a global candidate set;
* client fallback strategy for non-MEC names (multicast race vs.
  forward-on-timeout vs. provider-only);
* CoreDNS response caching on/off.

(The fifth ablation in EXPERIMENTS.md, the public-IP plan, is plain
arithmetic and lives with its unit: ``tests/mec/test_coredns.py``.)
"""

import ipaddress

import pytest

from repro.cdn import CacheServer, ContentCatalog, CoverageZone, TrafficRouter
from repro.core import FallbackClient, MecCdnSite
from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, NS, SOA
from repro.mec import CoreDnsServer, Orchestrator
from repro.netsim import Constant, Endpoint, Network, RandomStreams, Simulator
from repro.resolver import AuthoritativeServer, StubResolver


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


def probe_internal_names(split_enabled):
    """How many internal VNF names a public UE can resolve."""
    sim = Simulator()
    net = Network(sim, RandomStreams(5))
    nodes = [net.add_host(f"node-{i}", f"10.40.2.{10 + i}") for i in range(2)]
    net.add_link("node-0", "node-1", Constant(0.2))
    net.add_host("ue", "10.45.0.2")
    net.add_link("ue", "node-0", Constant(5))
    catalog = ContentCatalog()
    catalog.add_object(Name("video.demo1.mycdn.ciab.test"), "/x", 1000)
    site = MecCdnSite(net, "edge1", nodes, catalog)
    if not split_enabled:
        # The insecure ablation: treat every client as internal.
        site.split_namespace.internal_networks.append(
            ipaddress.IPv4Network("0.0.0.0/0"))
    leaked = 0
    for service_name in ("coredns.kube-system", "trafficrouter.cdn",
                         "cache.cdn"):
        stub = StubResolver(net, net.host("ue"), site.ldns_endpoint)
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name(f"{service_name}.svc.cluster.local"))))
        if result.status == "NOERROR" and result.addresses:
            leaked += 1
    return leaked


def test_split_namespace_hides_internal_names():
    assert probe_internal_names(split_enabled=True) == 0
    assert probe_internal_names(split_enabled=False) == 3


def build_router(cache_count):
    sim = Simulator()
    net = Network(sim, RandomStreams(9))
    catalog = ContentCatalog()
    caches = []
    for index in range(cache_count):
        host = net.add_host(f"cache-{index}", f"10.233.{index // 250}."
                                              f"{index % 250 + 1}")
        caches.append(CacheServer(net, host, catalog))
    router_host = net.add_host("router", "10.96.0.53")
    zone = CoverageZone("zone", ["0.0.0.0/0"], caches)
    router = TrafficRouter(net, router_host, Name("mycdn.ciab.test"),
                           zones=[zone])
    local_ips = {cache.endpoint.ip for cache in caches[:2]}
    return router, local_ips


def test_edge_scoped_cdns_always_answers_edge_local():
    router, local_ips = build_router(cache_count=2)
    cache, _ = router.select_cache(
        Name("video.demo1.mycdn.ciab.test"), "10.45.0.2")
    assert cache is not None
    assert cache.endpoint.ip in local_ips


def test_global_scoped_cdns_rarely_lands_at_the_edge():
    # The un-restricted router considers every cache in the CDN (64 here).
    router, local_ips = build_router(cache_count=64)
    picks = {router.select_cache(Name(f"obj{i}.mycdn.ciab.test"),
                                 "10.45.0.2")[0].endpoint.ip
             for i in range(50)}
    assert len(picks & local_ips) / len(picks) < 0.3


def fallback_latency(strategy):
    sim = Simulator()
    net = Network(sim, RandomStreams(13))
    net.add_host("ue", "10.45.0.2")
    net.add_host("mec-dns", "10.96.0.10")
    net.add_host("provider", "203.0.113.10")
    net.add_link("ue", "mec-dns", Constant(3))
    net.add_link("ue", "provider", Constant(40))
    AuthoritativeServer(net, net.host("mec-dns"),
                        [build_zone("mycdn.ciab.test", "10.233.1.10")])
    AuthoritativeServer(net, net.host("provider"),
                        [build_zone("mycdn.ciab.test", "198.18.0.1"),
                         build_zone("example.com", "198.18.0.2")])
    client = FallbackClient(net, net.host("ue"),
                            mec_dns=Endpoint("10.96.0.10", 53),
                            provider_ldns=Endpoint("203.0.113.10", 53),
                            mec_timeout=30)
    if strategy == "provider-only":
        stub = StubResolver(net, net.host("ue"), Endpoint("203.0.113.10", 53))
        result = sim.run_until_resolved(sim.spawn(
            stub.query(Name("video.example.com"))))
        return result.query_time_ms
    method = getattr(client, strategy)
    result = sim.run_until_resolved(sim.spawn(
        method(Name("video.example.com"))))
    return result.latency_ms


@pytest.mark.parametrize("strategy", ["race", "timeout_fallback",
                                      "provider-only"])
def test_fallback_strategy_stays_cheap_for_non_mec_names(strategy):
    # Race adds no round trips over provider-only; timeout-fallback adds
    # at most the MEC REFUSED round trip (fast, the MEC DNS is close).
    assert fallback_latency(strategy) < 130


def repeat_query_latency(enable_cache):
    sim = Simulator()
    net = Network(sim, RandomStreams(21))
    node = net.add_host("node", "10.40.2.10")
    net.add_host("ue", "10.45.0.2")
    net.add_host("upstream", "203.0.113.10")
    net.add_link("ue", "node", Constant(3))
    net.add_link("node", "upstream", Constant(25))
    AuthoritativeServer(net, net.host("upstream"),
                        [build_zone("example.com", "198.18.0.2")])
    orch = Orchestrator(net, "edge1")
    orch.register_node(node)
    coredns = CoreDnsServer(net, node, orch,
                            upstream=Endpoint("203.0.113.10", 53),
                            enable_cache=enable_cache)
    stub = StubResolver(net, net.host("ue"), coredns.endpoint)
    sim.run_until_resolved(sim.spawn(stub.query(Name("video.example.com"))))
    second = sim.run_until_resolved(sim.spawn(
        stub.query(Name("video.example.com"))))
    return second.query_time_ms


def test_coredns_cache_speeds_up_repeat_queries():
    assert repeat_query_latency(True) < repeat_query_latency(False) / 3
