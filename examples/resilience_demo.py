#!/usr/bin/env python
"""Resilience: health checks and replica control keep the edge serving.

The paper's design hinges on orchestration ("the end-to-end orchestration
of the containerized RAN, core network, MEC and CDN, through a single
logically centralized orchestrator").  This demo shows the two control
loops that make the MEC-CDN self-healing:

* a :class:`~repro.cdn.health.HealthMonitor` probing the cache pods, so
  the C-DNS stops answering with a crashed cache within a probe interval;
* a :class:`~repro.mec.controller.ReplicaController` keeping the C-DNS
  service at its replica count, so even killing the router pod only
  causes a brief gap — its fixed cluster IP moves to the replacement.

Run:  python examples/resilience_demo.py
"""

from repro.cdn import CacheServer, ContentCatalog, CoverageZone, HealthMonitor, TrafficRouter
from repro.dnswire import Name
from repro.mec import Orchestrator, ReplicaController
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import RetryPolicy, StubResolver

DOMAIN = Name("mycdn.ciab.test")
CONTENT = Name("video.demo1.mycdn.ciab.test")


def main() -> None:
    print(__doc__)
    sim = Simulator()
    net = Network(sim, RandomStreams(41))
    node_a = net.add_host("node-a", "10.40.2.10")
    node_b = net.add_host("node-b", "10.40.2.11")
    net.add_link("node-a", "node-b", Constant(0.2))
    net.add_host("ue", "10.45.0.2")
    net.add_link("ue", "node-a", Constant(4))
    net.add_link("ue", "node-b", Constant(4))

    orch = Orchestrator(net, "edge1")
    orch.register_node(node_a)
    orch.register_node(node_b)
    catalog = ContentCatalog()
    catalog.add_object(CONTENT, "/seg1.ts", 100_000)

    # Cache pods.
    caches = []
    cache_service = orch.create_service("cache", namespace="cdn", port=80)

    def start_cache(pod):
        cache = CacheServer(net, pod.host, catalog)
        cache.warm(catalog.under_domain(DOMAIN))
        caches.append(cache)
        return cache

    for _ in range(3):
        orch.deploy_pod(cache_service, start_cache)

    # C-DNS service under a replica controller, with health-checked caches.
    cdns_service = orch.create_service("trafficrouter", namespace="cdn",
                                       port=53)
    monitor = HealthMonitor(net, node_a, caches, interval_ms=200,
                            probe_timeout_ms=80, failure_threshold=2)
    monitor.start()

    def start_router(pod):
        return TrafficRouter(
            net, pod.host, DOMAIN,
            zones=[CoverageZone("edge", ["10.0.0.0/8"], caches)],
            health_check=monitor.is_healthy, answer_ttl=0)

    controller = ReplicaController(orch, cdns_service, start_router,
                                   replicas=1, check_interval_ms=250)
    controller.start()
    sim.run(until=300)  # let the first reconcile place the router pod

    def resolve():
        stub = StubResolver(net, net.host("ue"), cdns_service.endpoint,
                            policy=RetryPolicy(retries=3, timeout_ms=400,
                                               backoff=1.0))
        return sim.run_until_resolved(sim.spawn(stub.query(CONTENT)))

    baseline = resolve()
    print(f"t={sim.now:7.0f}ms  baseline: {CONTENT} -> "
          f"{baseline.addresses[0]} in {baseline.query_time_ms:.1f} ms "
          f"(router pod {cdns_service.active_pod.name})")

    # --- Chaos 1: crash the cache that currently serves the content -----
    victim = next(cache for cache in caches
                  if cache.endpoint.ip == baseline.addresses[0])
    victim.online = False
    print(f"t={sim.now:7.0f}ms  CRASH cache {victim.name}")
    sim.run(until=sim.now + 600)  # two probe intervals
    rerouted = resolve()
    print(f"t={sim.now:7.0f}ms  monitor rerouted: {CONTENT} -> "
          f"{rerouted.addresses[0]} "
          f"(healthy caches: {monitor.healthy_count}/3)")
    assert rerouted.addresses[0] != victim.endpoint.ip

    # --- Chaos 2: kill the C-DNS pod itself ------------------------------
    dead_pod = cdns_service.active_pod
    orch.kill_pod(dead_pod)
    dead_pod.app.sock.close()
    print(f"t={sim.now:7.0f}ms  KILL router pod {dead_pod.name}")
    sim.run(until=sim.now + 600)  # give the controller a cycle or two
    recovered = resolve()
    print(f"t={sim.now:7.0f}ms  controller restarted the router "
          f"({cdns_service.active_pod.name}); resolution works again: "
          f"{CONTENT} -> {recovered.addresses[0]} in "
          f"{recovered.query_time_ms:.1f} ms")
    print(f"\nrestarts={controller.restarts}, probes={monitor.probes_sent}, "
          f"health transitions={monitor.transitions}")
    print("Same cluster IP before and after every failure — clients never "
          "reconfigure anything.")
    assert recovered.status == "NOERROR"

    monitor.stop()
    controller.stop()


if __name__ == "__main__":
    main()
