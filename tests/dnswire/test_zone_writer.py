"""Round-trip oracle for ``parse_master_file``: render a zone, parse it back.

The writer exists for this file alone, so it lives here.
"""


from hypothesis import given, settings, strategies as st

from repro.dnswire import (
    A,
    CNAME,
    Name,
    RecordType,
    ResourceRecord,
    TXT,
    Zone,
    parse_master_file,
)
from repro.dnswire.rdata import MX, NS, SOA, SRV

ORIGIN = Name("render.test")


def zone_to_master_text(zone):
    """Render a zone in master-file format, the parser's round-trip input.

    The SOA leads (as convention requires), owners are written relative
    to the origin (``@`` for the apex), and rdata uses each type's
    presentation form.
    """
    lines = [f"$ORIGIN {zone.origin.to_text()}"]

    def owner_text(name: Name) -> str:
        if name == zone.origin:
            return "@"
        labels = name.relativize(zone.origin)
        return Name.from_labels(labels).to_text()[:-1]

    def render(record: ResourceRecord) -> str:
        return (f"{owner_text(record.name)} {record.ttl} "
                f"{record.rclass.name} {record.rtype.name} "
                f"{record.rdata.to_text()}")

    soa = zone.soa
    if soa is not None:
        lines.append(render(soa))
    body = sorted((record for record in zone.records()
                   if record.rtype != RecordType.SOA),
                  key=lambda record: (record.name, int(record.rtype),
                                      record.rdata.to_text()))
    lines.extend(render(record) for record in body)
    return "\n".join(lines) + "\n"


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def base_zone():
    zone = Zone(ORIGIN)
    zone.add(rr("render.test", RecordType.SOA,
                SOA(Name("ns1.render.test"), Name("admin.render.test"),
                    7, 60, 30, 1209600, 300)))
    zone.add(rr("render.test", RecordType.NS, NS(Name("ns1.render.test"))))
    zone.add(rr("ns1.render.test", RecordType.A, A("10.0.0.53")))
    return zone


class TestWriter:
    def test_origin_and_apex_rendering(self):
        text = zone_to_master_text(base_zone())
        assert text.startswith("$ORIGIN render.test.\n")
        assert "@ 300 IN SOA" in text

    def test_soa_leads(self):
        lines = zone_to_master_text(base_zone()).splitlines()
        assert "SOA" in lines[1]

    def test_roundtrip_all_supported_types(self):
        zone = base_zone()
        zone.add(rr("www.render.test", RecordType.A, A("192.0.2.1")))
        zone.add(rr("alias.render.test", RecordType.CNAME,
                    CNAME(Name("www.render.test"))))
        zone.add(rr("render.test", RecordType.MX,
                    MX(10, Name("mail.render.test"))))
        zone.add(rr("txt.render.test", RecordType.TXT,
                    TXT((b"v=mec1", b"hello world"))))
        zone.add(rr("_dns._udp.render.test", RecordType.SRV,
                    SRV(0, 5, 53, Name("ns1.render.test"))))
        reparsed = parse_master_file(zone_to_master_text(zone))
        original = sorted(map(str, (r.to_text() for r in zone.records())))
        roundtripped = sorted(map(str, (r.to_text()
                                        for r in reparsed.records())))
        assert roundtripped == original

    def test_roundtrip_preserves_lookup_behaviour(self):
        zone = base_zone()
        zone.add(rr("*.edge.render.test", RecordType.A, A("10.9.9.9")))
        reparsed = parse_master_file(zone_to_master_text(zone))
        result = reparsed.lookup(Name("atl.edge.render.test"), RecordType.A)
        assert result.status.value == "success"


_label = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789"),
                 min_size=1, max_size=10)
_ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda v: f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}")


@given(st.lists(st.tuples(_label, _ipv4, st.integers(1, 86400)),
                min_size=0, max_size=12, unique_by=lambda t: t[0]))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_random_zones(hosts):
    zone = base_zone()
    for label, address, ttl in hosts:
        zone.add(rr(f"{label}.render.test", RecordType.A, A(address),
                    ttl=ttl))
    reparsed = parse_master_file(zone_to_master_text(zone))
    assert sorted(r.to_text() for r in reparsed.records()) == \
        sorted(r.to_text() for r in zone.records())
