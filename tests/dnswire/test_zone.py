"""Tests for zone data and lookup semantics."""

import pytest

from repro.dnswire import (
    A,
    CNAME,
    LookupStatus,
    Name,
    RecordType,
    ResourceRecord,
    Zone,
)
from repro.dnswire.rdata import NS, SOA
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
    z.add(rr("alias.example.com", RecordType.CNAME, CNAME(Name("www.example.com"))))
    z.add(rr("*.wild.example.com", RecordType.A, A("192.0.2.99")))
    z.add(rr("deep.empty.example.com", RecordType.A, A("192.0.2.50")))
    z.add(rr("sub.example.com", RecordType.NS, NS(Name("ns.sub.example.com"))))
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

    def test_cname_interposed(self, zone):
        result = zone.lookup(Name("alias.example.com"), RecordType.A)
        assert result.status == LookupStatus.CNAME
        assert result.cname_target == Name("www.example.com")
        assert result.records[0].rtype == RecordType.CNAME

    def test_cname_query_returns_cname_directly(self, zone):
        result = zone.lookup(Name("alias.example.com"), RecordType.CNAME)
        assert result.status == LookupStatus.SUCCESS

    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(Name("anything.wild.example.com"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS
        assert result.records[0].name == Name("anything.wild.example.com")
        assert result.records[0].rdata.address == "192.0.2.99"

    def test_wildcard_multiple_levels(self, zone):
        result = zone.lookup(Name("a.b.wild.example.com"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS

    def test_empty_non_terminal_is_nodata(self, zone):
        # "empty.example.com" exists only as an interior node.
        result = zone.lookup(Name("empty.example.com"), RecordType.A)
        assert result.status == LookupStatus.NODATA

    def test_delegation(self, zone):
        result = zone.lookup(Name("host.sub.example.com"), RecordType.A)
        assert result.status == LookupStatus.DELEGATION
        assert result.authority[0].rtype == RecordType.NS
        assert result.authority[0].rdata.target == Name("ns.sub.example.com")

    def test_delegation_at_cut_point(self, zone):
        result = zone.lookup(Name("sub.example.com"), RecordType.A)
        assert result.status == LookupStatus.DELEGATION

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

    def test_cname_conflicts_with_other_data(self, zone):
        with pytest.raises(ZoneError):
            zone.add(rr("www.example.com", RecordType.CNAME,
                        CNAME(Name("x.example.com"))))
        with pytest.raises(ZoneError):
            zone.add(rr("alias.example.com", RecordType.A, A("192.0.2.1")))

    def test_soa_property(self, zone):
        assert zone.soa is not None
        assert zone.soa.rdata.minimum == 60

    def test_records_iteration(self, zone):
        assert sum(1 for _ in zone.records()) == 8

