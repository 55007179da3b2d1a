"""CDN substrate: content, caches, the traffic router, and provider models.

Stands in for Apache Traffic Control and the commercial CDNs the paper
measures:

* :mod:`repro.cdn.content` — content catalog and Zipf request workloads.
* :mod:`repro.cdn.policy` — LRU/LFU/FIFO eviction.
* :mod:`repro.cdn.cache_server` — cache servers with hit/miss accounting,
  origin fill, and a minimal GET protocol for end-to-end fetch latency.
* :mod:`repro.cdn.geo` — coordinates, haversine distance, and a GeoIP
  database with the limited accuracy the paper calls out.
* :mod:`repro.cdn.providers` — the provider CIDR pools from Figure 3
  (Akamai, Fastly, Amazon CloudFront, Edgecast/Verizon) and the Table 1
  site catalog.
* :mod:`repro.cdn.allocation` — consistent-hash rings and bounded-load
  user-traffic allocation (Huang et al.); the router and the population
  workload engine share the ring, the engine alone runs the bounded loads.
* :mod:`repro.cdn.router` — the C-DNS traffic router: coverage zones,
  consistent hashing on the content name, ECS scoping, next-tier referral.
* :mod:`repro.cdn.hierarchy` — edge/mid/far cache tiers with miss
  referral.
* :mod:`repro.cdn.broker` — CDN broker that splits a domain's traffic
  across providers (the §2/Q3 opaqueness source).
* :mod:`repro.cdn.httpsim` — the client side of the GET protocol.
"""

from repro.cdn.allocation import ConsistentAllocator, HashRing
from repro.cdn.content import ContentCatalog, ContentItem, ZipfRankStream
from repro.cdn.policy import EvictionPolicy, LruPolicy, LfuPolicy, FifoPolicy
from repro.cdn.cache_server import CacheServer, CacheStats
from repro.cdn.geo import GeoPoint, GeoIpDatabase, haversine_km
from repro.cdn.providers import (
    CidrPool,
    Provider,
    DomainDeployment,
    PROVIDERS,
    TABLE1_SITES,
)
from repro.cdn.router import TrafficRouter, CoverageZone
from repro.cdn.health import HealthMonitor
from repro.cdn.hierarchy import CdnTier, TieredCdn
from repro.cdn.broker import CdnBroker
from repro.cdn.httpsim import HttpClient, FetchResult

__all__ = [
    "ConsistentAllocator",
    "HashRing",
    "ContentCatalog",
    "ContentItem",
    "ZipfRankStream",
    "EvictionPolicy",
    "LruPolicy",
    "LfuPolicy",
    "FifoPolicy",
    "CacheServer",
    "CacheStats",
    "GeoPoint",
    "GeoIpDatabase",
    "haversine_km",
    "CidrPool",
    "Provider",
    "DomainDeployment",
    "PROVIDERS",
    "TABLE1_SITES",
    "TrafficRouter",
    "CoverageZone",
    "HealthMonitor",
    "CdnTier",
    "TieredCdn",
    "CdnBroker",
    "HttpClient",
    "FetchResult",
]
