"""CDN brokers and the public multi-CDN authority of Figures 2-3.

The paper's Q3 observes that for a single CDN domain, answers spread
across providers and pools with a distribution that depends on the access
network — driven by cascading CNAMEs, brokers, and per-resolver load
balancing that is opaque even to the CDNs.  :class:`CdnBroker` models the
selection; :class:`BrokeredCdnAuthority` is the authoritative server that
applies it, classifying the requesting resolver into a connectivity class
by its source address.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cdn.providers import CidrPool, DomainDeployment
from repro.dnswire.message import Message, ResourceRecord, make_response
from repro.dnswire.rdata import A
from repro.dnswire.types import Rcode, RecordType
from repro.netsim.packet import Endpoint
from repro.resolver.server import DnsServer

#: TTL for brokered answers: short, so load balancing stays live.
BROKERED_TTL = 30


class CdnBroker:
    """Splits one domain's traffic across provider pools.

    The per-connectivity weights come from the deployment model; each
    selection also hashes the requesting resolver into the pool so one
    resolver sees a stable-ish front end while the population spreads.
    """

    def __init__(self, deployment: DomainDeployment,
                 rng: random.Random) -> None:
        self.deployment = deployment
        self._rng = rng
        self.selections: Dict[str, int] = {}

    def select_pool(self, connectivity: str) -> CidrPool:
        """Pick a pool for one query using the connectivity's weights."""
        weights = self.deployment.weights_for(connectivity)
        pool = self._rng.choices(self.deployment.pools, weights=weights)[0]
        self.selections[pool.label] = self.selections.get(pool.label, 0) + 1
        return pool

    def resolve(self, connectivity: str, resolver_key: str) -> str:
        """An A-record address for one query from ``resolver_key``."""
        pool = self.select_pool(connectivity)
        return pool.address_for(resolver_key)


class BrokeredCdnAuthority(DnsServer):
    """Authoritative for a set of brokered CDN domains.

    ``resolver_classes`` maps source-IP prefixes to connectivity classes —
    standing in for the provider's knowledge of which L-DNS belongs to
    which access network.  Unknown resolvers count as ``"wired-campus"``.
    """

    def __init__(self, network, host,
                 brokers: List[CdnBroker],
                 resolver_classes: Dict[str, str],
                 per_domain_delay: Optional[Dict] = None, **kwargs) -> None:
        super().__init__(network, host, **kwargs)
        self._brokers = {broker.deployment.domain: broker
                         for broker in brokers}
        self.resolver_classes = dict(resolver_classes)
        #: domain -> LatencyModel: extra C-DNS internal time per provider
        #: stack ("server hierarchy, naming, indexing, content placement,
        #: cache miss policy", §2).
        self.per_domain_delay = dict(per_domain_delay or {})
        self._delay_rng = network.streams.stream(f"cdns-delay:{host.name}")
        self.answered = 0

    def classify(self, resolver_ip: str) -> str:
        """The connectivity class of a resolver, by source-IP prefix."""
        best: Optional[str] = None
        best_len = -1
        for prefix, connectivity in self.resolver_classes.items():
            if resolver_ip.startswith(prefix) and len(prefix) > best_len:
                best, best_len = connectivity, len(prefix)
        return best if best is not None else "wired-campus"

    def handle_query(self, query: Message, client: Endpoint):
        question = query.question
        broker = self._brokers.get(question.name)
        if broker is None:
            return make_response(query, rcode=Rcode.REFUSED)
        if question.rtype != RecordType.A:
            return make_response(query, authoritative=True)
        extra_delay = self.per_domain_delay.get(question.name)
        if extra_delay is not None:
            return self._answer_with_delay(query, broker, client, extra_delay)
        return self._answer(query, broker, client)

    def _answer_with_delay(self, query: Message, broker: CdnBroker,
                           client: Endpoint, delay) -> "Generator":
        yield delay.sample(self._delay_rng)
        return self._answer(query, broker, client)

    def _answer(self, query: Message, broker: CdnBroker,
                client: Endpoint) -> Message:
        question = query.question
        connectivity = self.classify(client.ip)
        address = broker.resolve(connectivity, client.ip)
        self.answered += 1
        answer = ResourceRecord(question.name, RecordType.A, BROKERED_TTL,
                                A(address))
        return make_response(query, authoritative=True, answers=[answer])
