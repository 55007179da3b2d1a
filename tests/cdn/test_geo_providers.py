"""Tests for geography, GeoIP, provider pools, and the broker."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.cdn.broker import CdnBroker
from repro.cdn.geo import GeoIpDatabase, GeoPoint, displace, haversine_km
from repro.cdn.providers import (
    AKAMAI_24,
    CONNECTIVITIES,
    FASTLY_151,
    TABLE1_SITES,
    table1_site,
)

ATLANTA = GeoPoint(33.749, -84.388)
NYC = GeoPoint(40.713, -74.006)


class TestGeo:
    def test_haversine_known_distance(self):
        # Atlanta <-> New York is ~1200 km.
        assert haversine_km(ATLANTA, NYC) == pytest.approx(1200, rel=0.03)

    def test_haversine_zero(self):
        assert haversine_km(ATLANTA, ATLANTA) == 0

    def test_haversine_symmetric(self):
        assert haversine_km(ATLANTA, NYC) == pytest.approx(
            haversine_km(NYC, ATLANTA))

    def test_displace_distance_roundtrip(self):
        moved = displace(ATLANTA, 100, 0.7)
        assert haversine_km(ATLANTA, moved) == pytest.approx(100, rel=0.01)

    @given(st.floats(min_value=0, max_value=2000),
           st.floats(min_value=0, max_value=6.28))
    def test_displace_property(self, distance, bearing):
        moved = displace(ATLANTA, distance, bearing)
        assert haversine_km(ATLANTA, moved) == pytest.approx(
            distance, rel=0.02, abs=0.5)


class TestGeoIp:
    def test_exact_entry_and_lookup(self):
        db = GeoIpDatabase(random.Random(0))
        db.register("198.51.100.0/24", ATLANTA, error_km=0)
        assert db.lookup("198.51.100.7") == ATLANTA

    def test_longest_prefix_wins(self):
        db = GeoIpDatabase(random.Random(0))
        db.register("198.51.0.0/16", NYC, error_km=0)
        db.register("198.51.100.0/24", ATLANTA, error_km=0)
        assert db.lookup("198.51.100.7") == ATLANTA
        assert db.lookup("198.51.5.1") == NYC

    def test_unknown_ip_returns_none(self):
        db = GeoIpDatabase(random.Random(0))
        assert db.lookup("8.8.8.8") is None
        assert db.unknown == 1

    def test_error_radius_bounds_displacement(self):
        db = GeoIpDatabase(random.Random(1))
        db.register("198.51.100.0/24", ATLANTA, error_km=500)
        for _ in range(100):
            believed = db.lookup("198.51.100.9")
            assert haversine_km(ATLANTA, believed) <= 505

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            GeoIpDatabase(random.Random(0)).register("10.0.0.0/8", ATLANTA, error_km=-1)


class TestProviders:
    def test_pool_contains(self):
        assert AKAMAI_24.contains("23.55.124.7")
        assert not AKAMAI_24.contains("23.55.125.7")
        assert FASTLY_151.contains("151.101.34.1")

    def test_address_for_is_stable_and_in_pool(self):
        first = AKAMAI_24.address_for("resolver-1")
        second = AKAMAI_24.address_for("resolver-1")
        other = AKAMAI_24.address_for("resolver-2")
        assert first == second
        assert AKAMAI_24.contains(first)
        assert AKAMAI_24.contains(other)

    def test_table1_has_five_sites_with_paper_domains(self):
        assert len(TABLE1_SITES) == 5
        domains = {d.site: d.domain.to_text() for d in TABLE1_SITES}
        assert domains["Airbnb"] == "a0.muscache.com."
        assert domains["Booking.com"] == "q-cf.bstatic.com."
        assert domains["TripAdvisor"] == "static.tacdn.com."
        assert domains["Agoda"] == "cdn0.agoda.net."
        assert domains["Expedia"] == "a.cdn.intentmedia.net."

    def test_weights_normalised_per_connectivity(self):
        for deployment in TABLE1_SITES:
            for connectivity in CONNECTIVITIES:
                weights = deployment.weights_for(connectivity)
                assert len(weights) == len(deployment.pools)
                assert sum(weights) == pytest.approx(1.0)

    def test_weights_differ_across_connectivities(self):
        # The core Figure 3 observation: same domain, different mixes.
        for deployment in TABLE1_SITES:
            mixes = {tuple(deployment.weights_for(c)) for c in CONNECTIVITIES}
            assert len(mixes) == 3

    def test_pool_for_ip(self):
        deployment = table1_site("Agoda")
        assert deployment.pool_for_ip("23.55.124.9") == AKAMAI_24
        assert deployment.pool_for_ip("203.0.113.1") is None

    def test_unknown_site_raises_key_error(self):
        assert table1_site("Expedia").domain.to_text() == \
            "a.cdn.intentmedia.net."
        with pytest.raises(KeyError):
            table1_site("Hotels.com")

    def test_unknown_connectivity_rejected(self):
        with pytest.raises(ValueError):
            TABLE1_SITES[0].weights_for("satellite")


class TestBroker:
    def test_selection_tracks_weights(self):
        deployment = table1_site("Agoda")
        broker = CdnBroker(deployment, random.Random(9))
        counts = Counter(broker.select_pool("wired-campus").label
                         for _ in range(2000))
        share = counts[AKAMAI_24.label] / 2000
        assert share == pytest.approx(0.80, abs=0.04)

    def test_distributions_differ_by_connectivity(self):
        deployment = table1_site("Agoda")
        broker = CdnBroker(deployment, random.Random(9))
        wired = Counter(broker.select_pool("wired-campus").label
                        for _ in range(1000))
        cellular = Counter(broker.select_pool("cellular-mobile").label
                           for _ in range(1000))
        assert wired[AKAMAI_24.label] > 2 * cellular[AKAMAI_24.label]

    def test_resolve_returns_in_pool_address(self):
        deployment = table1_site("Booking.com")
        broker = CdnBroker(deployment, random.Random(1))
        address = broker.resolve("wifi-home", "resolver-x")
        assert deployment.pool_for_ip(address) is not None
