"""Tests for zone data, lookup semantics, and the master-file parser."""

import pytest

from repro.dnswire import (
    A,
    CNAME,
    LookupStatus,
    Name,
    RecordType,
    ResourceRecord,
    Zone,
    parse_master_file,
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


MASTER = """
$ORIGIN mycdn.ciab.test.
$TTL 1h
@       IN SOA ns1 admin ( 2024010101 7200 3600
                           1209600 300 )
        IN NS  ns1
ns1     IN A   10.0.0.53
video   300 IN A 10.233.1.10
video   IN A   10.233.1.11
demo    IN CNAME video
*.edge  IN A   10.233.2.1
txt     IN TXT "v=mec1" "edge=atlanta"
"""


class TestMasterFile:
    def test_parse_counts(self):
        zone = parse_master_file(MASTER)
        assert zone.origin == Name("mycdn.ciab.test")
        assert sum(1 for _ in zone.records()) == 8

    def test_soa_parenthesised(self):
        zone = parse_master_file(MASTER)
        assert zone.soa.rdata.serial == 2024010101
        assert zone.soa.rdata.minimum == 300

    def test_ttl_handling(self):
        zone = parse_master_file(MASTER)
        result = zone.lookup(Name("video.mycdn.ciab.test"), RecordType.A)
        assert {r.ttl for r in result.records} == {300, 3600}

    def test_default_ttl_applied(self):
        zone = parse_master_file(MASTER)
        result = zone.lookup(Name("ns1.mycdn.ciab.test"), RecordType.A)
        assert result.records[0].ttl == 3600

    def test_relative_names_resolved(self):
        zone = parse_master_file(MASTER)
        result = zone.lookup(Name("demo.mycdn.ciab.test"), RecordType.A)
        assert result.status == LookupStatus.CNAME
        assert result.cname_target == Name("video.mycdn.ciab.test")

    def test_wildcard_from_master(self):
        zone = parse_master_file(MASTER)
        result = zone.lookup(Name("atl1.edge.mycdn.ciab.test"), RecordType.A)
        assert result.status == LookupStatus.SUCCESS

    def test_txt_quoting(self):
        zone = parse_master_file(MASTER)
        result = zone.lookup(Name("txt.mycdn.ciab.test"), RecordType.TXT)
        assert result.records[0].rdata.strings == (b"v=mec1", b"edge=atlanta")

    def test_origin_argument(self):
        zone = parse_master_file("www IN A 192.0.2.1", origin=Name("example.com"))
        assert zone.lookup(Name("www.example.com"), RecordType.A).status == \
            LookupStatus.SUCCESS

    def test_no_origin_raises(self):
        with pytest.raises(ZoneError):
            parse_master_file("www IN A 192.0.2.1")

    def test_unbalanced_parens_raise(self):
        with pytest.raises(ZoneError):
            parse_master_file("$ORIGIN e.com.\n@ IN SOA ns1 admin ( 1 2 3")

    def test_empty_file_raises(self):
        with pytest.raises(ZoneError):
            parse_master_file("; only a comment\n")

    def test_comments_ignored(self):
        zone = parse_master_file(
            "$ORIGIN e.com.\nwww IN A 192.0.2.1 ; the web server\n")
        assert zone.lookup(Name("www.e.com"), RecordType.A).status == \
            LookupStatus.SUCCESS
