"""The CoreDNS analog: the MEC L-DNS, a chain server with §4's plugins.

Mirrors the configuration the paper's prototype uses (§4):

* a **cache** plugin serves repeat queries locally;
* the **kubernetes** plugin resolves ``<svc>.<ns>.svc.cluster.local``
  to cluster IPs from the orchestrator's service registry;
* a **stub-domain** entry ("Configuration of Stub-domain and upstream
  nameserver using CoreDNS") sends the CDN delivery domain to the ATC
  Traffic Router (C-DNS);
* a default **forward** plugin sends everything else upstream — the
  provider's L-DNS — so non-MEC names keep resolving.

The chain is cache, kubernetes, stub domain, then forward when an
upstream is given.  The cache and forward plugins, and the server that
runs the chain, are every L-DNS's (:mod:`repro.resolver.chain`); this
module adds what is specific to Kubernetes and to §4: service discovery,
stub domains and ECS injection.  A
:class:`repro.mec.namespaces.SplitNamespacePlugin` can be placed at the
front of the chain to implement the public/internal split.
"""

from __future__ import annotations

import copy
from typing import Dict, Generator, List, Optional

from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import Message, ResourceRecord, make_response
from repro.dnswire.name import Name
from repro.dnswire.rdata import A
from repro.dnswire.types import Rcode, RecordType
from repro.mec.cluster import Orchestrator
from repro.netsim.packet import Endpoint
from repro.resolver.chain import (CachePlugin, ChainServer, ForwardPlugin,
                                  Plugin, QueryContext, RelayPlugin)

#: TTL for service-discovery answers (kubernetes plugin default is 5s).
SERVICE_TTL = 5
#: The client prefix ``ecs_inject`` advertises (the RFC 7871 IPv4 default).
ECS_V4_PREFIX = 24


def stub_domain_upstream(domains: Dict[Name, Endpoint],
                         qname: Name) -> Optional[Endpoint]:
    """The upstream of the longest configured domain ``qname`` is under."""
    matches = [domain for domain in domains if qname.is_subdomain_of(domain)]
    return domains[max(matches, key=len)] if matches else None


class KubernetesPlugin(Plugin):
    """Service discovery over the orchestrator's registry."""

    name = "kubernetes"

    def __init__(self, orchestrator: Orchestrator) -> None:
        self.orchestrator = orchestrator
        self.cluster_domain = Name("cluster.local")

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        if not ctx.qname.is_subdomain_of(self.cluster_domain):
            response = yield from next_plugin(ctx)
            return response
        service = self.orchestrator.resolve_service_name(ctx.qname.to_text())
        if service is None or not service.ready_pods():
            return make_response(ctx.query, rcode=Rcode.NXDOMAIN,
                                 authoritative=True)
        if ctx.rtype not in (RecordType.A, RecordType.ANY):
            return make_response(ctx.query, authoritative=True)
        answer = ResourceRecord(ctx.qname, RecordType.A, SERVICE_TTL,
                                A(service.cluster_ip))
        return make_response(ctx.query, authoritative=True, answers=[answer])


class StubDomainPlugin(RelayPlugin):
    """Routes configured sub-domains to dedicated upstreams (C-DNS)."""

    name = "stubdomain"

    def __init__(self,
                 domains: Optional[Dict[Name, Endpoint]] = None) -> None:
        super().__init__()
        self.domains: Dict[Name, Endpoint] = dict(domains or {})

    def add(self, domain: Name, upstream: Endpoint) -> None:
        """Route queries under ``domain`` to a dedicated upstream."""
        self.domains[domain] = upstream

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        upstream = stub_domain_upstream(self.domains, ctx.qname)
        if upstream is None:
            response = yield from next_plugin(ctx)
            return response
        response = yield from self._forward(ctx, upstream)
        return response


class CoreDnsServer(ChainServer):
    """CoreDNS: the plugin chain behind one server socket.

    ``front_plugins`` are placed before everything else (the split-
    namespace policy goes here); ``upstream`` adds a default forward
    plugin when given.
    """

    def __init__(self, network, host, orchestrator: Orchestrator,
                 stub_domains: Optional[Dict[Name, Endpoint]] = None,
                 upstream: Optional[Endpoint] = None,
                 front_plugins: Optional[List[Plugin]] = None,
                 ecs_inject: bool = False,
                 serve_stale: bool = False,
                 **kwargs) -> None:
        #: When set, synthesize an ECS option carrying the client's subnet
        #: on queries that arrive without one (the §4 ECS experiment
        #: "enables ECS support at L-DNS").
        self.ecs_inject = ecs_inject
        self.kubernetes = KubernetesPlugin(orchestrator)
        self.stub = StubDomainPlugin(stub_domains)
        self.cache_plugin = CachePlugin(serve_stale=serve_stale)
        plugins: List[Plugin] = list(front_plugins or [])
        plugins.extend([self.cache_plugin, self.kubernetes, self.stub])
        self.forward_plugin: Optional[ForwardPlugin] = None
        if upstream is not None:
            self.forward_plugin = ForwardPlugin(upstream)
            plugins.append(self.forward_plugin)
        super().__init__(network, host, plugins, **kwargs)

    def add_stub_domain(self, domain: Name, upstream: Endpoint) -> None:
        """The §4 configuration step: sub-domain -> C-DNS."""
        self.stub.add(domain, upstream)

    def rewrite_query(self, query: Message, client: Endpoint) -> Message:
        """With ``ecs_inject``, a copy of ``query`` carrying the client's
        subnet; a query that already has ECS passes as it is.

        The client's query is read-only (its sender still reads it, and a
        forwarder hands its EDNS on by reference), so the option goes on a
        shallow copy with an EDNS of its own.  That copy is what the chain
        answers and what the reply's UDP size limit comes from.
        """
        edns = query.edns
        has_ecs = edns is not None and edns.client_subnet is not None
        if not self.ecs_inject or has_ecs:
            return query
        base = Edns() if edns is None else edns
        injected = copy.copy(query)
        injected.edns = Edns(base.udp_payload, base.version, base.dnssec_ok,
                             base.options + [ClientSubnet(client.ip,
                                                          ECS_V4_PREFIX)])
        return injected
