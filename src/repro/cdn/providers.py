"""Commercial CDN provider models: the CIDR pools of Figures 2-3.

Table 1 of the paper names five travel sites and the CDN domain each uses;
Figure 3 shows how responses for the same domain spread across provider
CIDR pools, with a different spread per access network.  This module
encodes those deployments:

* :data:`PROVIDERS` — the providers seen in Figure 3 with their pools.
* :data:`TABLE1_SITES` — each Table 1 site, its CDN domain, and the
  per-connectivity pool weights; :func:`table1_site` looks one up.

The weights are calibrated to the *qualitative* shape of Figure 3 (which
pools appear per connectivity and their rough ordering); the paper's bars
are read off a plot, so exact percentages are not meaningful to copy.
"""

from __future__ import annotations

import hashlib
import ipaddress
from typing import Dict, List, NamedTuple, Optional

from repro.cdn.geo import GeoPoint
from repro.dnswire.name import Name


class CidrPool(NamedTuple):
    """One provider address pool (a Figure 3 legend entry)."""

    provider: str
    cidr: str
    site: GeoPoint

    @property
    def label(self) -> str:
        return f"{self.provider} ({self.cidr})"

    def contains(self, ip: str) -> bool:
        """Whether ``ip`` falls inside this pool's CIDR block."""
        return ipaddress.IPv4Address(ip) in ipaddress.IPv4Network(self.cidr)

    def address_for(self, key: str) -> str:
        """A stable host address in this pool derived from ``key``.

        Hashing the key into the pool models the provider's internal load
        balancing: the same client context maps to the same front end,
        different contexts spread across the pool.
        """
        network = ipaddress.IPv4Network(self.cidr)
        digest = hashlib.sha256(f"{self.cidr}:{key}".encode()).digest()
        span = network.num_addresses - 2 if network.num_addresses > 2 else 1
        offset = 1 + int.from_bytes(digest[:4], "big") % span
        return str(network.network_address + offset)


class Provider(NamedTuple):
    """A CDN provider with one or more address pools."""

    name: str
    pools: List[CidrPool]


# Approximate metro locations for pool sites (used by GeoIP modelling).
_ATLANTA = GeoPoint(33.749, -84.388)
_ASHBURN = GeoPoint(39.044, -77.488)
_DALLAS = GeoPoint(32.777, -96.797)
_CHICAGO = GeoPoint(41.878, -87.630)
_LOS_ANGELES = GeoPoint(34.052, -118.244)

# The exact CIDR labels from Figure 3.
AKAMAI_24 = CidrPool("Akamai", "23.55.124.0/24", _ATLANTA)
AKAMAI_8 = CidrPool("Akamai", "23.0.0.0/8", _CHICAGO)
AKAMAI_104 = CidrPool("Akamai", "104.127.91.0/24", _DALLAS)
FASTLY_151 = CidrPool("Fastly", "151.101.0.0/16", _ASHBURN)
FASTLY_199 = CidrPool("Fastly", "199.232.0.0/16", _LOS_ANGELES)
CLOUDFRONT_13 = CidrPool("Amazon CloudFront", "13.249.0.0/16", _ASHBURN)
CLOUDFRONT_54 = CidrPool("Amazon CloudFront", "54.230.0.0/16", _DALLAS)
EDGECAST = CidrPool("Edgecast-Verizon", "152.195.0.0/16", _LOS_ANGELES)

PROVIDERS: Dict[str, Provider] = {
    "Akamai": Provider("Akamai", [AKAMAI_24, AKAMAI_8, AKAMAI_104]),
    "Fastly": Provider("Fastly", [FASTLY_151, FASTLY_199]),
    "Amazon CloudFront": Provider("Amazon CloudFront",
                                  [CLOUDFRONT_13, CLOUDFRONT_54]),
    "Edgecast-Verizon": Provider("Edgecast-Verizon", [EDGECAST]),
}

#: The connectivity classes of Figure 2/3.
CONNECTIVITIES = ("wired-campus", "wifi-home", "cellular-mobile")


class DomainDeployment(NamedTuple):
    """One Table 1 site: its CDN domain and per-connectivity pool mix."""

    site: str
    domain: Name
    pools: List[CidrPool]
    #: connectivity -> weight per pool (same order as ``pools``).
    weights: Dict[str, List[float]]

    def weights_for(self, connectivity: str) -> List[float]:
        """The pool weights for one connectivity class."""
        try:
            return self.weights[connectivity]
        except KeyError:
            raise ValueError(f"unknown connectivity {connectivity!r}; "
                             f"expected one of {CONNECTIVITIES}") from None

    def pool_for_ip(self, ip: str) -> Optional[CidrPool]:
        """The pool an answer address belongs to, or None."""
        for pool in self.pools:
            if pool.contains(ip):
                return pool
        return None


TABLE1_SITES: List[DomainDeployment] = [
    DomainDeployment(
        site="Airbnb",
        domain=Name("a0.muscache.com"),
        pools=[AKAMAI_24, FASTLY_151, FASTLY_199],
        weights={
            "wired-campus": [0.55, 0.30, 0.15],
            "wifi-home": [0.25, 0.50, 0.25],
            "cellular-mobile": [0.10, 0.30, 0.60],
        }),
    DomainDeployment(
        site="Booking.com",
        domain=Name("q-cf.bstatic.com"),
        pools=[CLOUDFRONT_13, CLOUDFRONT_54],
        weights={
            "wired-campus": [0.70, 0.30],
            "wifi-home": [0.40, 0.60],
            "cellular-mobile": [0.15, 0.85],
        }),
    DomainDeployment(
        site="TripAdvisor",
        domain=Name("static.tacdn.com"),
        pools=[AKAMAI_8, AKAMAI_104, FASTLY_151, FASTLY_199, EDGECAST],
        weights={
            "wired-campus": [0.30, 0.20, 0.25, 0.15, 0.10],
            "wifi-home": [0.20, 0.15, 0.30, 0.20, 0.15],
            "cellular-mobile": [0.10, 0.10, 0.25, 0.30, 0.25],
        }),
    DomainDeployment(
        site="Agoda",
        domain=Name("cdn0.agoda.net"),
        pools=[AKAMAI_24, AKAMAI_8],
        weights={
            "wired-campus": [0.80, 0.20],
            "wifi-home": [0.50, 0.50],
            "cellular-mobile": [0.20, 0.80],
        }),
    DomainDeployment(
        site="Expedia",
        domain=Name("a.cdn.intentmedia.net"),
        pools=[CLOUDFRONT_13, CLOUDFRONT_54, FASTLY_151, FASTLY_199],
        weights={
            "wired-campus": [0.40, 0.20, 0.25, 0.15],
            "wifi-home": [0.25, 0.25, 0.30, 0.20],
            "cellular-mobile": [0.10, 0.15, 0.35, 0.40],
        }),
]


def table1_site(site: str) -> DomainDeployment:
    """The Table 1 deployment of ``site``; ``KeyError`` for any other."""
    for deployment in TABLE1_SITES:
        if deployment.site == site:
            return deployment
    raise KeyError(site)
