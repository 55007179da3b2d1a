"""Tests for zone data and lookup semantics."""

import pytest

from repro.dnswire.rdata import A, CNAME, NS, SOA
from repro.dnswire.zone import LookupStatus, Zone
from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.errors import ZoneError


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


@pytest.fixture
def zone():
    z = Zone(Name("example.com"))
    z.add(rr("example.com", RecordType.SOA,
             SOA(Name("ns1.example.com"), Name("admin.example.com"),
                 1, 7200, 3600, 1209600, 60)))
    z.add(rr("example.com", RecordType.NS, NS(Name("ns1.example.com"))))
    z.add(rr("www.example.com", RecordType.A, A("192.0.2.10")))
    z.add(rr("www.example.com", RecordType.A, A("192.0.2.11")))
    z.add(rr("*.wild.example.com", RecordType.A, A("192.0.2.99")))
    z.add(rr("deep.empty.example.com", RecordType.A, A("192.0.2.50")))
    return z


class TestLookup:
    def test_exact_match(self, zone):
        result = zone.lookup(Name("www.example.com"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS
        assert sorted(r.rdata.address for r in result.records) == \
            ["192.0.2.10", "192.0.2.11"]

    def test_case_insensitive_lookup(self, zone):
        result = zone.lookup(Name("WWW.EXAMPLE.COM"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS

    def test_nodata(self, zone):
        result = zone.lookup(Name("www.example.com"), RecordType.AAAA)
        assert result.status == LookupStatus.NODATA
        assert result.authority  # SOA for negative caching
        assert result.authority[0].rtype == RecordType.SOA

    def test_nxdomain(self, zone):
        result = zone.lookup(Name("missing.example.com"), RecordType.A)
        assert result.status == LookupStatus.NXDOMAIN
        assert result.authority[0].rtype == RecordType.SOA

    def test_out_of_zone_is_nxdomain(self, zone):
        result = zone.lookup(Name("www.other.net"), RecordType.A)
        assert result.status == LookupStatus.NXDOMAIN

    def test_star_label_is_literal(self, zone):
        # No wildcard synthesis: "*" is an ordinary label.
        result = zone.lookup(Name("*.wild.example.com"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS
        assert result.records[0].rdata.address == "192.0.2.99"
        result = zone.lookup(Name("x.wild.example.com"), RecordType.A)
        assert result.status == LookupStatus.NXDOMAIN
        result = zone.lookup(Name("wild.example.com"), RecordType.A)
        assert result.status == LookupStatus.NODATA

    def test_empty_non_terminal_is_nodata(self, zone):
        # "empty.example.com" exists only as an interior node.
        result = zone.lookup(Name("empty.example.com"), RecordType.A)
        assert result.status == LookupStatus.NODATA

    def test_apex_ns_is_not_delegation(self, zone):
        result = zone.lookup(Name("example.com"), RecordType.NS)
        assert result.status == LookupStatus.SUCCESS

    def test_any_query(self, zone):
        result = zone.lookup(Name("example.com"), RecordType.ANY)
        assert result.status == LookupStatus.SUCCESS
        assert {r.rtype for r in result.records} == {RecordType.SOA, RecordType.NS}


class TestZoneBuilding:
    def test_out_of_zone_add_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add(rr("www.other.net", RecordType.A, A("192.0.2.1")))

    @pytest.mark.parametrize("record, accepted", [
        (rr("alias.example.com", RecordType.CNAME,
            CNAME(Name("www.example.com"))), False),
        (rr("www.example.com", RecordType.CNAME,
            CNAME(Name("x.example.com"))), False),
        (rr("example.com", RecordType.CNAME,
            CNAME(Name("www.example.com"))), False),
        (rr("sub.example.com", RecordType.NS,
            NS(Name("ns.sub.example.com"))), False),
        (rr("www.example.com", RecordType.NS,
            NS(Name("ns.elsewhere.net"))), False),
        (rr("a.b.example.com", RecordType.NS,
            NS(Name("ns.b.example.com"))), False),
        (rr("example.com", RecordType.NS, NS(Name("ns2.example.com"))), True),
    ], ids=["cname", "cname-beside-data", "cname-at-apex", "ns-below-apex",
            "ns-beside-data", "ns-two-below-apex", "apex-ns"])
    def test_aliases_and_zone_cuts_are_refused(self, zone, record, accepted):
        before = list(zone.records())
        if accepted:
            zone.add(record)
            assert zone.lookup(record.name, record.rtype).records[-1] == record
        else:
            with pytest.raises(ZoneError):
                zone.add(record)
            assert list(zone.records()) == before

    def test_soa_property(self, zone):
        assert zone.soa is not None
        assert zone.soa.rdata.minimum == 60

    def test_records_iteration(self, zone):
        assert sum(1 for _ in zone.records()) == 6

