"""Tests for typed rdata codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.name import Name
from repro.dnswire.rdata import (
    A, CNAME, GenericRdata, NS, PTR, SOA, TXT,
    parse_rdata, rdata_class_for,
)
from repro.dnswire.types import RecordType
from repro.dnswire.wire import WireReader, WireWriter
from repro.errors import WireFormatError


def generic_roundtrip(data, rtype):
    """A type with no class of its own decodes as opaque octets."""
    parsed = parse_rdata(int(rtype), WireReader(data), len(data))
    assert parsed == GenericRdata(data, int(rtype))
    writer = WireWriter()
    parsed.to_wire(writer)
    assert writer.getvalue() == data


def roundtrip(rdata, rtype):
    writer = WireWriter()
    rdata.to_wire(writer)
    data = writer.getvalue()
    return parse_rdata(int(rtype), WireReader(data), len(data))


class TestA:
    def test_roundtrip(self):
        assert roundtrip(A("192.0.2.1"), RecordType.A) == A("192.0.2.1")

    def test_text(self):
        assert A("192.0.2.1").to_text() == "192.0.2.1"

    def test_invalid_address(self):
        with pytest.raises(ValueError):
            A("999.1.1.1")

    def test_wrong_length_rejected(self):
        with pytest.raises(WireFormatError):
            parse_rdata(int(RecordType.A), WireReader(b"\x01\x02\x03"), 3)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_ipv4_roundtrips(self, packed):
        import ipaddress
        address = str(ipaddress.IPv4Address(packed))
        assert roundtrip(A(address), RecordType.A).address == address


class TestAAAA:
    def test_roundtrip(self):
        generic_roundtrip(bytes.fromhex("20010db8" + "00" * 11 + "01"),
                          RecordType.AAAA)


class TestNameRdata:
    def test_cname_roundtrip(self):
        rdata = CNAME(Name("cdn.example.net"))
        assert roundtrip(rdata, RecordType.CNAME) == rdata

    def test_ns_ptr(self):
        assert roundtrip(NS(Name("ns1.example.com")), RecordType.NS).target == \
            Name("ns1.example.com")
        assert roundtrip(PTR(Name("host.example.com")), RecordType.PTR).target == \
            Name("host.example.com")

    def test_cname_and_ns_not_equal(self):
        assert CNAME(Name("x.com")) != NS(Name("x.com"))


class TestMX:
    def test_roundtrip(self):
        generic_roundtrip(b"\x00\x0a\x04mail\x07example\x03com\x00",
                          RecordType.MX)


class TestTXT:
    def test_roundtrip(self):
        rdata = TXT((b"hello", b"world"))
        assert roundtrip(rdata, RecordType.TXT) == rdata

    def test_from_string_splits_at_255(self):
        rdata = TXT.from_string("x" * 600)
        assert [len(chunk) for chunk in rdata.strings] == [255, 255, 90]

    def test_oversize_chunk_rejected(self):
        with pytest.raises(WireFormatError):
            TXT((b"x" * 256,))

    def test_text_rendering(self):
        assert TXT((b"a b",)).to_text() == '"a b"'


class TestSOA:
    def test_roundtrip(self):
        rdata = SOA(Name("ns1.example.com"), Name("admin.example.com"),
                    2024010101, 7200, 3600, 1209600, 300)
        parsed = roundtrip(rdata, RecordType.SOA)
        assert parsed == rdata
        assert parsed.minimum == 300


class TestSRV:
    def test_roundtrip(self):
        generic_roundtrip(b"\x00\x00\x00\x05\x00\x35\x03dns\x00",
                          RecordType.SRV)


class TestGeneric:
    def test_unknown_type_roundtrips(self):
        data = b"\x01\x02\x03\x04"
        parsed = parse_rdata(999, WireReader(data), len(data))
        assert isinstance(parsed, GenericRdata)
        assert parsed.data == data
        assert parsed.generic_rtype == 999

    def test_rfc3597_text(self):
        rdata = GenericRdata(b"\xde\xad")
        assert rdata.to_text() == "\\# 2 dead"

    def test_registry_lookup(self):
        assert rdata_class_for(int(RecordType.A)) is A
        assert rdata_class_for(4242) is GenericRdata


class TestRdlengthValidation:
    def test_underconsumed_rdata_rejected(self):
        # A CNAME whose rdlength claims more bytes than the name uses.
        writer = WireWriter()
        CNAME(Name("a.b")).to_wire(writer)
        data = writer.getvalue() + b"\x00"
        with pytest.raises(WireFormatError):
            parse_rdata(int(RecordType.CNAME), WireReader(data), len(data))
