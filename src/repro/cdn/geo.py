"""Geography: coordinates, distance, and an error-prone GeoIP database.

The paper (§2): "CDN servers infer the location of the public gateways
using GeoIP lookup and that too with limited accuracy [MaxMind]".
:class:`GeoIpDatabase` models this: each registered prefix carries the
location the database *believes* plus an error radius; lookups return a
point displaced by up to that radius, so CDN routing decisions built on
GeoIP inherit realistic inaccuracy.
"""

from __future__ import annotations

import ipaddress
import math
import random
from typing import List, NamedTuple, Optional

EARTH_RADIUS_KM = 6371.0


class GeoPoint(NamedTuple):
    """A latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __str__(self) -> str:
        return f"({self.lat:.3f}, {self.lon:.3f})"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def displace(point: GeoPoint, distance_km: float, bearing_rad: float) -> GeoPoint:
    """The point ``distance_km`` away from ``point`` along ``bearing_rad``."""
    angular = distance_km / EARTH_RADIUS_KM
    lat1 = math.radians(point.lat)
    lon1 = math.radians(point.lon)
    lat2 = math.asin(math.sin(lat1) * math.cos(angular)
                     + math.cos(lat1) * math.sin(angular) * math.cos(bearing_rad))
    lon2 = lon1 + math.atan2(
        math.sin(bearing_rad) * math.sin(angular) * math.cos(lat1),
        math.cos(angular) - math.sin(lat1) * math.sin(lat2))
    return GeoPoint(math.degrees(lat2), (math.degrees(lon2) + 540) % 360 - 180)


class _GeoEntry(NamedTuple):
    network: ipaddress.IPv4Network
    location: GeoPoint
    error_km: float


class GeoIpDatabase:
    """Longest-prefix GeoIP with a per-entry error radius.

    ``rng`` is required: lookup perturbation must draw from an explicit
    named stream (``network.streams.stream("geoip")``), never a hidden
    shared default — instances that silently share one RNG break replay
    determinism (the analyzer's rule DET005, ``tests/static``).
    """

    def __init__(self, rng: random.Random) -> None:
        self._entries: List[_GeoEntry] = []
        self._rng = rng
        self.lookups = 0
        self.unknown = 0

    def register(self, cidr: str, location: GeoPoint,
                 error_km: float = 0.0) -> None:
        """Map ``cidr`` to ``location`` with the given uncertainty radius."""
        if error_km < 0:
            raise ValueError(f"negative error radius {error_km}")
        self._entries.append(_GeoEntry(
            ipaddress.IPv4Network(cidr), location, error_km))
        self._entries.sort(key=lambda entry: entry.network.prefixlen,
                           reverse=True)

    def lookup(self, ip: str) -> Optional[GeoPoint]:
        """The believed location of ``ip``, perturbed by the error radius."""
        self.lookups += 1
        address = ipaddress.IPv4Address(ip)
        for entry in self._entries:
            if address in entry.network:
                if entry.error_km == 0:
                    return entry.location
                distance = self._rng.uniform(0, entry.error_km)
                bearing = self._rng.uniform(0, 2 * math.pi)
                return displace(entry.location, distance, bearing)
        self.unknown += 1
        return None

    def __len__(self) -> int:
        return len(self._entries)
