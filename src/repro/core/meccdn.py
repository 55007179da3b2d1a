"""MecCdnSite: the Figure 4 system assembled on one MEC cluster.

Deployment sequence (mirroring §4 of the paper):

1. an :class:`~repro.mec.cluster.Orchestrator` over the MEC nodes;
2. cache pods for the CDN delivery domain, optionally warmed with the
   domain's content;
3. the C-DNS (ATC Traffic Router analog) as a service with a **fixed
   cluster IP**, so scaling events never move its address;
4. CoreDNS as the MEC L-DNS, with a **stub domain** sending the CDN
   delivery domain to the C-DNS cluster IP and a default forward to the
   provider's L-DNS;
5. a **split namespace**: the delivery domain is registered publicly, the
   cluster namespace stays internal-only.

The result: a UE pointed at the CoreDNS cluster IP resolves CDN content
in a single hop contained at the MEC (steps 1-2 of Figure 4), then
fetches from an edge cache pod.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cdn.allocation import HashRing
from repro.cdn.cache_server import CacheServer
from repro.cdn.content import ContentCatalog
from repro.cdn.router import CoverageZone, TrafficRouter
from repro.dnswire.name import Name
from repro.mec.cluster import Orchestrator, Pod, Service
from repro.mec.coredns import CoreDnsServer
from repro.mec.namespaces import SplitNamespacePlugin
from repro.netsim.latency import LatencyModel
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint

#: Cluster-internal CIDRs that count as the vRAN's private namespace.
INTERNAL_NETWORKS = ["10.40.0.0/16", "10.233.64.0/18", "10.96.0.0/16"]


class MecCdnSite:
    """One MEC edge site running the proposed MEC-CDN design."""

    def __init__(self, network: Network, name: str, nodes: List[Host],
                 catalog: ContentCatalog,
                 cdn_domain: Name = Name("mycdn.ciab.test"),
                 client_networks: Optional[List[str]] = None,
                 upstream_ldns: Optional[Endpoint] = None,
                 cache_count: int = 2,
                 warm_caches: bool = True,
                 ecs_enabled: bool = False,
                 answer_ttl: int = 0,
                 cdns_endpoint_override: Optional[Endpoint] = None,
                 ldns_processing_delay: Optional[LatencyModel] = None,
                 cdns_processing_delay: Optional[LatencyModel] = None,
                 service_cidr: str = "10.96.0.0/16",
                 pod_cidr: str = "10.233.64.0/18",
                 serve_stale: bool = False,
                 coredns_upstream_timeout: Optional[float] = None) -> None:
        if not nodes:
            raise ValueError("a MEC site needs at least one node")
        self.network = network
        self.name = name
        self.catalog = catalog
        self.cdn_domain = cdn_domain
        client_networks = client_networks or ["10.45.0.0/16"]

        # Pod fabric latency calibrated against the paper's testbed: the
        # veth/bridge/kube-proxy path costs a few hundred microseconds.
        from repro.netsim.latency import Constant as _Constant
        self.orchestrator = Orchestrator(network, name,
                                         service_cidr=service_cidr,
                                         pod_cidr=pod_cidr,
                                         fabric_latency=_Constant(0.35))
        for node in nodes:
            self.orchestrator.register_node(node)

        # -- cache pods -------------------------------------------------------
        self.cache_service: Service = self.orchestrator.create_service(
            "cache", namespace="cdn", port=80)
        self.caches: List[CacheServer] = []
        for _ in range(cache_count):
            self.orchestrator.deploy_pod(self.cache_service,
                                         starter=self._start_cache)
        if warm_caches:
            items = catalog.under_domain(cdn_domain)
            for cache in self.caches:
                cache.warm(items)

        # -- C-DNS (Traffic Router) with a fixed cluster IP --------------------
        self.cdns_service: Service = self.orchestrator.create_service(
            "trafficrouter", namespace="cdn", port=53)
        zone_networks = list(client_networks) + INTERNAL_NETWORKS
        self._edge_zone = CoverageZone(f"{name}-edge", zone_networks,
                                       HashRing(self.caches))
        self._ecs_enabled = ecs_enabled
        self._answer_ttl = answer_ttl
        self._cdns_processing_delay = cdns_processing_delay
        self.cdns_pod: Pod = self.orchestrator.deploy_pod(
            self.cdns_service, starter=self._start_cdns)
        self.cdns: TrafficRouter = self.cdns_pod.app  # type: ignore[assignment]

        # -- CoreDNS (MEC L-DNS) with split namespace --------------------------
        self.split_namespace = SplitNamespacePlugin(INTERNAL_NETWORKS)
        self.split_namespace.register_public(cdn_domain)
        self.ldns_service: Service = self.orchestrator.create_service(
            "coredns", namespace="kube-system", port=53)
        cdns_target = cdns_endpoint_override or self.cdns_service.endpoint
        self._coredns_config = {
            "stub_domains": {cdn_domain: cdns_target},
            "upstream": upstream_ldns,
            "processing_delay": ldns_processing_delay,
            "ecs_inject": ecs_enabled,
            "serve_stale": serve_stale,
            "upstream_timeout": coredns_upstream_timeout,
        }
        self.ldns_pod: Pod = self.orchestrator.deploy_pod(
            self.ldns_service, starter=self._start_coredns)
        self.ldns: CoreDnsServer = self.ldns_pod.app  # type: ignore[assignment]

    # -- pod starters -------------------------------------------------------------

    def _start_cache(self, pod: Pod) -> CacheServer:
        cache = CacheServer(self.network, pod.host, self.catalog)
        self.caches.append(cache)
        return cache

    def _start_cdns(self, pod: Pod) -> TrafficRouter:
        kwargs = {}
        if self._cdns_processing_delay is not None:
            kwargs["processing_delay"] = self._cdns_processing_delay
        return TrafficRouter(
            self.network, pod.host, self.cdn_domain,
            zones=[self._edge_zone],
            answer_ttl=self._answer_ttl,
            ecs_enabled=self._ecs_enabled,
            **kwargs)

    def _start_coredns(self, pod: Pod) -> CoreDnsServer:
        config = self._coredns_config
        kwargs = {}
        if config["processing_delay"] is not None:
            kwargs["processing_delay"] = config["processing_delay"]
        server = CoreDnsServer(
            self.network, pod.host, self.orchestrator,
            stub_domains=config["stub_domains"],
            upstream=config["upstream"],
            front_plugins=[self.split_namespace],
            ecs_inject=config["ecs_inject"],
            serve_stale=config["serve_stale"],
            **kwargs)
        if config["upstream_timeout"] is not None:
            server.stub.timeout = config["upstream_timeout"]
            if server.forward_plugin is not None:
                server.forward_plugin.timeout = config["upstream_timeout"]
        return server

    # -- public surface --------------------------------------------------------------

    @property
    def ldns_endpoint(self) -> Endpoint:
        """What UEs are pointed at: the CoreDNS service cluster IP."""
        return self.ldns_service.endpoint

    def publish_domain(self, domain: Name, cdns: Endpoint) -> None:
        """Onboard another CDN customer's delivery domain at this site."""
        self.split_namespace.register_public(domain)
        self.ldns.add_stub_domain(domain, cdns)

    def __repr__(self) -> str:
        return (f"MecCdnSite({self.name}, domain={self.cdn_domain}, "
                f"{len(self.caches)} caches, ldns={self.ldns_endpoint})")
