#!/usr/bin/env python
"""Cache policy study: eviction policy vs. hit ratio at a small MEC edge.

An MEC cache is small relative to a CDN's catalog ("for scalability
reasons, [multiple cache server instances] are co-running at a MEC
location"), so the eviction policy decides how much traffic stays at the
edge.  This study replays the same Zipf-skewed request stream against an
edge cache under LRU, LFU, and FIFO at several cache sizes and reports
the edge hit ratio and mean fetch latency.

Run:  python examples/cache_policy_study.py
"""

from repro.cdn import (
    CacheServer,
    ContentCatalog,
    FifoPolicy,
    HttpClient,
    LfuPolicy,
    LruPolicy,
    ZipfRankStream,
)
from repro.dnswire import Name
from repro.experiments.report import format_table
from repro.netsim import Constant, Network, RandomStreams, Simulator

CATALOG_OBJECTS = 400
REQUESTS = 1200
ZIPF_EXPONENT = 0.9
POLICIES = {"LRU": LruPolicy, "LFU": LfuPolicy, "FIFO": FifoPolicy}
#: Cache size as a fraction of the total catalog bytes.
SIZE_FRACTIONS = (0.05, 0.15, 0.40)


def run_one(policy_name, fraction, seed=71):
    sim = Simulator()
    net = Network(sim, RandomStreams(seed))
    net.add_host("client", "10.45.0.2")
    net.add_host("edge", "10.233.1.10")
    net.add_host("origin", "203.0.113.80")
    net.add_link("client", "edge", Constant(2))
    net.add_link("edge", "origin", Constant(35))

    catalog = ContentCatalog()
    rng = net.streams.stream("catalog")
    items = catalog.populate_synthetic(Name("video.mycdn.ciab.test"),
                                       CATALOG_OBJECTS, rng,
                                       min_bytes=50_000, max_bytes=400_000)
    total_bytes = sum(item.size_bytes for item in items)
    origin = CacheServer(net, net.host("origin"), catalog, is_origin=True)
    edge = CacheServer(net, net.host("edge"), catalog,
                       capacity_bytes=max(int(total_bytes * fraction), 1),
                       policy=POLICIES[policy_name](),
                       parent=origin.endpoint)

    workload = ZipfRankStream(len(items), net.streams.stream("workload"),
                              exponent=ZIPF_EXPONENT)
    client = HttpClient(net, net.host("client"))
    latencies = []
    for rank in workload.ranks(REQUESTS):
        item = items[rank - 1]
        fetch = sim.run_until_resolved(
            sim.spawn(client.fetch(item.url, "10.233.1.10")))
        latencies.append(fetch.latency_ms)
    return edge.stats.hit_ratio, sum(latencies) / len(latencies)


def main() -> None:
    print(__doc__)
    rows = []
    for fraction in SIZE_FRACTIONS:
        for policy_name in POLICIES:
            hit_ratio, mean_latency = run_one(policy_name, fraction)
            rows.append((f"{100 * fraction:.0f}%", policy_name,
                         f"{100 * hit_ratio:.1f}%", f"{mean_latency:.1f}"))
    print(format_table(
        ["Cache size (of catalog)", "Policy", "Edge hit ratio",
         "mean fetch ms"],
        rows,
        title=f"Zipf({ZIPF_EXPONENT}) stream of {REQUESTS} requests over "
              f"{CATALOG_OBJECTS} objects"))
    print("\nEvery edge miss pays the 70 ms origin round trip — at MEC "
          "cache sizes, policy choice moves the mean fetch latency by "
          "tens of percent, which is why ATC-style CDNs pin content with "
          "consistent hashing before relying on eviction.")


if __name__ == "__main__":
    main()
