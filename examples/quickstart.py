#!/usr/bin/env python
"""Quickstart: build a MEC-CDN edge site and watch one request flow.

This walks the paper's Figure 4 end to end:

1. assemble an LTE testbed (UE, eNB, S-GW, P-GW) and a MEC cluster;
2. deploy the MEC-CDN: cache pods, the C-DNS traffic router, and the
   CoreDNS L-DNS with a split namespace and a stub domain;
3. resolve a CDN URL from the UE — a single hop, contained at the MEC;
4. fetch the content from the edge cache the answer named.

Run:  python examples/quickstart.py
"""

from repro.cdn.httpsim import HttpClient
from repro.core.deployments import build_testbed
from repro.dnswire.name import Name
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import summarize


def main() -> None:
    print(__doc__)
    testbed = build_testbed("mec-ldns-mec-cdns", seed=7)
    print(f"Testbed: UE={testbed.ue.name} -> DNS {testbed.ue.dns} "
          f"(the CoreDNS cluster IP)")
    print(f"MEC site: {testbed.mec_site}\n")

    # --- Step 1: resolve the CDN content name from the UE -----------------
    measurements = measure_deployment_queries(testbed, count=10)
    stats = summarize([m.latency_ms for m in measurements])
    cache_ip = measurements[0].addresses[0]
    print(f"Resolved {testbed.query_name} -> {cache_ip}")
    print(f"DNS latency over 10 queries: {stats}")
    wireless = summarize([m.wireless_ms for m in measurements]).mean
    print(f"  of which wireless (UE<->P-GW): {wireless:.1f} ms "
          f"({100 * wireless / stats.mean:.0f}% of the lookup)\n")

    # --- Step 2: fetch the content from the answered cache ----------------
    sim = testbed.sim
    client = HttpClient(testbed.network, testbed.ue.host)
    url = f"http://{testbed.query_name.to_text().rstrip('.')}/seg1.ts"
    fetch = sim.run_until_resolved(sim.spawn(client.fetch(url, cache_ip)))
    print(f"GET {url}")
    print(f"  -> {fetch.status} {fetch.size_bytes} bytes from "
          f"{fetch.served_by} ({'HIT' if fetch.cache_hit else 'MISS'}) "
          f"in {fetch.latency_ms:.1f} ms")

    # --- Step 3: the split namespace protects the vRAN --------------------
    stub = testbed.ue.stub()
    result = sim.run_until_resolved(sim.spawn(
        stub.query(Name("trafficrouter.cdn.svc.cluster.local"))))
    print(f"\nUE asking for an internal VNF name -> {result.status} "
          f"(the split namespace hides the vRAN)")


if __name__ == "__main__":
    main()
