"""Tests for the P2 mislocalization experiment."""

import pytest

from repro.cdn.providers import CONNECTIVITIES
from repro.experiments.mislocalization import (
    CLIENT_LOCATION,
    EXPERIMENT,
    GEOIP_ENTRIES,
)


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT.run_serial(trials=15, seed=4)


class TestMislocalization:
    def test_shape_claims_hold(self, result):
        assert EXPERIMENT.check_shape(result) == []

    def test_rows_cover_connectivities(self, result):
        assert [row.connectivity for row in result.rows] == \
            list(CONNECTIVITIES)

    def test_cellular_geoip_error_dominates(self, result):
        wired = result.row("wired-campus")
        cellular = result.row("cellular-mobile")
        # The carrier pool is registered ~1150 km away with a 450 km
        # radius; the campus block is essentially on-site.
        assert wired.geoip_error_km < 30
        assert cellular.geoip_error_km > 700

    def test_cache_distance_ordering(self, result):
        distances = [row.mean_cache_distance_km for row in result.rows]
        assert distances[0] < distances[2]  # wired < cellular

    def test_per_site_detail_complete(self, result):
        assert set(result.per_site_distance) == {
            "Airbnb", "Booking.com", "TripAdvisor", "Agoda", "Expedia"}
        for by_conn in result.per_site_distance.values():
            assert set(by_conn) == set(CONNECTIVITIES)

    def test_render(self, result):
        text = result.render()
        assert "GeoIP error km" in text
        assert "cellular-mobile" in text

    def test_row_lookup_unknown(self, result):
        with pytest.raises(KeyError):
            result.row("satellite")

    def test_geoip_entries_cover_visible_addresses(self):
        import ipaddress
        from repro.experiments.mislocalization import VISIBLE_ADDRESS
        networks = [ipaddress.IPv4Network(cidr)
                    for cidr, _, _ in GEOIP_ENTRIES]
        for address in VISIBLE_ADDRESS.values():
            assert any(ipaddress.IPv4Address(address) in network
                       for network in networks)

    def test_client_location_is_atlanta_area(self):
        assert 33 < CLIENT_LOCATION.lat < 34.5
        assert -85 < CLIENT_LOCATION.lon < -84
