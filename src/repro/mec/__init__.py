"""MEC platform: a Kubernetes-style orchestrator and its DNS.

The paper's §3-4 design re-purposes the MEC orchestrator's internal DNS
(CoreDNS in a Kubernetes-managed vRAN) as the public-facing edge L-DNS,
with a split namespace so internal VNF names never leak.  This package
models that platform:

* :mod:`repro.mec.cluster` — nodes, pods, services, cluster IPs
  (including the fixed-cluster-IP-across-scaling behaviour §4 relies on).
* :mod:`repro.mec.coredns` — the CoreDNS analog: the chain server
  (:mod:`repro.resolver.chain`) with kubernetes service discovery and
  stub-domain forwarding between its cache and default forward.
* :mod:`repro.mec.namespaces` — the split public/internal namespace
  plugin, with refuse and ignore policies.
* :mod:`repro.mec.ingress` — ingress-rate monitoring and the
  switch-to-provider-L-DNS overload mitigation.
"""
