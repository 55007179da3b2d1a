"""P2 quantified: client mislocalization and cache distance per network.

§2 of the paper: "The request's origin is often obfuscated in current
mobile networks including the client's IP address (CDN servers see the
public gateway's IP, not the end client's) and the geographic location of
the incoming request (CDN servers infer the location of the public
gateways using GeoIP lookup and that too with limited accuracy)".

This experiment puts numbers on that chain for the Figure 2/3 scenario:

1. **localization error** — the distance between the client's true
   location and where a GeoIP lookup of the address the CDN actually sees
   (campus resolver / ISP resolver / carrier NAT pool) places it; and
2. **cache distance** — the distance from the client to the site of the
   CIDR pool each DNS answer selects.

Both grow sharply from wired to cellular, which is exactly why the paper
argues P2 cannot be met from outside the mobile network.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, List, NamedTuple

from repro.cdn.geo import GeoIpDatabase, GeoPoint, haversine_km
from repro.cdn.providers import CONNECTIVITIES, TABLE1_SITES
from repro.experiments.public_internet import PublicInternetScenario
from repro.experiments.report import format_table
from repro.netsim.rand import RandomStreams
from repro.runtime import Claim, Experiment, Param, derive_seed

#: The device's true location (the paper measured from one spot; we use
#: the Georgia Tech campus).
CLIENT_LOCATION = GeoPoint(33.776, -84.399)

#: What a GeoIP database believes about each visible address block, with
#: its error radius.  The campus block is well known; the residential ISP
#: block is region-accurate; the carrier NAT pool is registered where the
#: operator aggregates it (hundreds of km away) with a wide error radius.
GEOIP_ENTRIES = (
    ("192.0.10.0/24", GeoPoint(33.78, -84.40), 15.0),     # campus resolver
    ("198.51.77.0/24", GeoPoint(33.95, -84.55), 80.0),    # metro ISP
    ("198.51.100.0/24", GeoPoint(32.78, -96.80), 450.0),  # carrier pool (Dallas)
)

#: The address the CDN plane sees per access network (resolver or NAT ip).
VISIBLE_ADDRESS = {
    "wired-campus": "192.0.10.53",
    "wifi-home": "198.51.77.53",
    "cellular-mobile": "198.51.100.9",
}

#: GeoIP samples per connectivity for the localization-error estimate.
GEOIP_SAMPLES = 200


class MislocalizationRow(NamedTuple):
    connectivity: str
    geoip_error_km: float         # mean believed-vs-true distance
    mean_cache_distance_km: float  # mean client-to-selected-pool-site


class MislocalizationResult(NamedTuple):
    rows: List[MislocalizationRow]
    per_site_distance: Dict[str, Dict[str, float]]
    trials: int

    def row(self, connectivity: str) -> MislocalizationRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.connectivity == connectivity:
                return row
        raise KeyError(connectivity)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = [(row.connectivity,
                       f"{row.geoip_error_km:.0f}",
                       f"{row.mean_cache_distance_km:.0f}")
                      for row in self.rows]
        summary = format_table(
            ["Connectivity", "GeoIP error km", "mean cache distance km"],
            table_rows,
            title="P2 mislocalization: what the CDN believes vs. reality")
        per_site_rows = []
        for site, by_conn in sorted(self.per_site_distance.items()):
            per_site_rows.append((site,) + tuple(
                f"{by_conn[connectivity]:.0f}"
                for connectivity in CONNECTIVITIES))
        detail = format_table(
            ["Site"] + list(CONNECTIVITIES), per_site_rows,
            title="Mean selected-cache distance (km) per site")
        return summary + "\n\n" + detail


def _deployment(site: str):
    for deployment in TABLE1_SITES:
        if deployment.site == site:
            return deployment
    raise KeyError(site)


class MislocalizationExperiment(Experiment):
    """Two kinds of independently-seeded cells.

    ``geoip`` cells sample the GeoIP error for one visible address;
    ``series`` cells run one (site, connectivity) DNS series and record
    the client-to-selected-pool distances.  ``merge`` reassembles the
    per-connectivity rows and the per-site table from the tagged
    payloads, in :data:`CONNECTIVITIES`/:data:`TABLE1_SITES` order.
    """

    name = "mislocalization"
    title = "P2 mislocalization: GeoIP error and cache distance"
    params = (Param("trials", int, 25, "DNS tests per cell"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        trials = int(params["trials"])
        base = int(params["seed"])
        specs = []
        for connectivity in CONNECTIVITIES:
            specs.append(self.spec(
                len(specs),
                seed=derive_seed(base, "mislocalization", "geoip",
                                 connectivity),
                kind="geoip", connectivity=connectivity))
        for deployment in TABLE1_SITES:
            for connectivity in CONNECTIVITIES:
                specs.append(self.spec(
                    len(specs),
                    seed=derive_seed(base, "mislocalization",
                                     deployment.site, connectivity),
                    kind="series", site=deployment.site,
                    connectivity=connectivity, trials=trials))
        return specs

    def run_trial(self, spec):
        if spec.value("kind") == "geoip":
            return self._geoip_cell(spec)
        return self._series_cell(spec)

    def _geoip_cell(self, spec):
        connectivity = str(spec.value("connectivity"))
        geoip = GeoIpDatabase(RandomStreams(spec.seed).stream("geoip"))
        for cidr, location, error_km in GEOIP_ENTRIES:
            geoip.register(cidr, location, error_km)
        visible = VISIBLE_ADDRESS[connectivity]
        errors = []
        for _ in range(GEOIP_SAMPLES):
            believed = geoip.lookup(visible)
            assert believed is not None
            errors.append(haversine_km(CLIENT_LOCATION, believed))
        return ("geoip", connectivity, reduce(add, errors, 0) / len(errors))

    def _series_cell(self, spec):
        site = str(spec.value("site"))
        connectivity = str(spec.value("connectivity"))
        deployment = _deployment(site)
        scenario = PublicInternetScenario(seed=spec.seed)
        results = scenario.run_series(connectivity, deployment,
                                      int(spec.value("trials")))
        distances = []
        for result in results:
            for address in result.addresses:
                pool = deployment.pool_for_ip(address)
                if pool is not None:
                    distances.append(
                        haversine_km(CLIENT_LOCATION, pool.site))
        return ("series", site, connectivity, distances)

    def merge(self, params, payloads):
        geoip_error: Dict[str, float] = {}
        per_site: Dict[str, Dict[str, float]] = {}
        mean_distance: Dict[str, List[float]] = {
            connectivity: [] for connectivity in CONNECTIVITIES}
        for payload in payloads:
            if payload[0] == "geoip":
                _, connectivity, error = payload
                geoip_error[connectivity] = error
            else:
                _, site, connectivity, distances = payload
                site_mean = (reduce(add, distances, 0) / len(distances)
                             if distances else 0.0)
                per_site.setdefault(site, {})[connectivity] = site_mean
                mean_distance[connectivity].extend(distances)
        rows = [MislocalizationRow(
                    connectivity=connectivity,
                    geoip_error_km=geoip_error[connectivity],
                    mean_cache_distance_km=(
                        reduce(add, mean_distance[connectivity], 0)
                        / len(mean_distance[connectivity])))
                for connectivity in CONNECTIVITIES]
        return MislocalizationResult(rows=rows, per_site_distance=per_site,
                                     trials=int(params["trials"]))

    def claims(self, result: MislocalizationResult) -> List[Claim]:
        """Cellular is geolocated far worse than wired, and served farther."""
        wired, wifi, cellular = (result.row(connectivity)
                                 for connectivity in CONNECTIVITIES)
        return [
            Claim("cellular GeoIP error km over 5x wired",
                  cellular.geoip_error_km, ">", 5 * wired.geoip_error_km),
            Claim("wired GeoIP error km below wifi", wired.geoip_error_km,
                  "<", wifi.geoip_error_km),
            Claim("cellular cache distance km over wired",
                  cellular.mean_cache_distance_km, ">",
                  wired.mean_cache_distance_km)]


EXPERIMENT = MislocalizationExperiment()
