"""Tests for the full message codec."""

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.rdata import A, CNAME, GenericRdata, NS
from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import (Flags, Message, Question, ResourceRecord,
                                   make_query, make_response)
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType, Opcode
from repro.errors import WireFormatError


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


class TestFlags:
    def test_bits_roundtrip_all_set(self):
        flags = Flags(qr=True, aa=True, tc=True, rd=True, ra=True, ad=True, cd=True)
        assert Flags.from_bits(flags.to_bits()) == flags

    def test_bits_roundtrip_none_set(self):
        flags = Flags(rd=False)
        assert Flags.from_bits(flags.to_bits()) == flags

    def test_individual_bits(self):
        assert Flags(qr=True, rd=False).to_bits() == 0x8000
        assert Flags(rd=True).to_bits() == 0x0100


class TestQueryResponse:
    def test_query_roundtrip(self):
        query = make_query(Name("a0.muscache.com"), RecordType.A, msg_id=42)
        parsed = Message.from_wire(query.to_wire())
        assert parsed.msg_id == 42
        assert parsed.question == Question(Name("a0.muscache.com"), RecordType.A)
        assert not parsed.flags.qr
        assert parsed.flags.rd

    def test_response_roundtrip(self):
        query = make_query(Name("cdn0.agoda.net"), msg_id=7)
        response = make_response(
            query, authoritative=True,
            answers=[rr("cdn0.agoda.net", RecordType.A, A("23.55.124.10"))])
        parsed = Message.from_wire(response.to_wire())
        assert parsed.msg_id == 7
        assert parsed.flags.qr and parsed.flags.aa
        assert parsed.answer_addresses() == ["23.55.124.10"]

    def test_cname_chain_in_answer(self):
        query = make_query(Name("static.tacdn.com"), msg_id=1)
        response = make_response(query, answers=[
            rr("static.tacdn.com", RecordType.CNAME, CNAME(Name("t.fastly.net"))),
            rr("t.fastly.net", RecordType.A, A("151.101.2.2")),
        ])
        parsed = Message.from_wire(response.to_wire())
        assert parsed.answers[0].rtype == RecordType.CNAME
        assert parsed.answer_addresses() == ["151.101.2.2"]

    def test_all_sections_roundtrip(self):
        from repro.dnswire.rdata import SOA
        query = make_query(Name("x.example.com"), msg_id=3)
        response = make_response(
            query, rcode=Rcode.NXDOMAIN,
            authorities=[rr("example.com", RecordType.SOA,
                            SOA(Name("ns1.example.com"), Name("admin.example.com"),
                                1, 2, 3, 4, 60))],
            additionals=[rr("ns1.example.com", RecordType.A, A("192.0.2.53"))])
        parsed = Message.from_wire(response.to_wire())
        assert parsed.rcode == Rcode.NXDOMAIN
        assert len(parsed.authorities) == 1
        assert len(parsed.additionals) == 1
        assert parsed.authorities[0].rtype == RecordType.SOA

    def test_response_mirrors_rd_flag(self):
        query = make_query(Name("a.b"), recursion_desired=False)
        assert not make_response(query).flags.rd

    def test_question_accessor_empty_raises(self):
        with pytest.raises(WireFormatError):
            Message().question

    def test_opcode_roundtrip(self):
        msg = Message(msg_id=5, opcode=Opcode.NOTIFY)
        msg.questions.append(Question(Name("example.com"), RecordType.SOA))
        assert Message.from_wire(msg.to_wire()).opcode == Opcode.NOTIFY


class TestEdnsInMessages:
    def test_opt_record_roundtrip(self):
        query = make_query(Name("example.com"), msg_id=9,
                           edns=Edns(udp_payload=4096))
        parsed = Message.from_wire(query.to_wire())
        assert parsed.edns is not None
        assert parsed.edns.udp_payload == 4096

    def test_ecs_rides_in_opt(self):
        ecs = ClientSubnet("203.0.113.0", 24)
        query = make_query(Name("example.com"), edns=Edns(options=[ecs]))
        parsed = Message.from_wire(query.to_wire())
        assert parsed.edns.client_subnet == ecs

    def test_response_mirrors_edns(self):
        ecs = ClientSubnet("203.0.113.0", 24)
        query = make_query(Name("example.com"), edns=Edns(options=[ecs]))
        response = make_response(query)
        assert response.edns is not None
        assert response.edns.client_subnet == ecs

    def test_no_edns_means_no_opt(self):
        query = make_query(Name("example.com"))
        parsed = Message.from_wire(query.to_wire())
        assert parsed.edns is None

    def test_extended_rcode(self):
        query = make_query(Name("example.com"), edns=Edns())
        response = make_response(query, rcode=Rcode.BADVERS)
        parsed = Message.from_wire(response.to_wire())
        assert parsed.rcode == Rcode.BADVERS

    def test_dnssec_ok_bit(self):
        query = make_query(Name("example.com"), edns=Edns(dnssec_ok=True))
        assert Message.from_wire(query.to_wire()).edns.dnssec_ok

    def test_non_root_opt_owner_rejected(self):
        query = make_query(Name("example.com"), edns=Edns())
        data = bytearray(query.to_wire())
        # Corrupt the OPT owner: replace root label (0x00) before TYPE=41
        # with a pointer to the question name.
        opt_type_at = data.find(b"\x00\x29", 12 + 1)
        data[opt_type_at - 1:opt_type_at + 1] = b"\xc0\x0c\x00"
        with pytest.raises(WireFormatError):
            Message.from_wire(bytes(data))


    def test_compressed_root_opt_owner_accepted_like_the_eager_parser(self):
        # A pointer to a zero octet (offset 4: the high half of QDCOUNT)
        # spells the root in two octets.  The eager parser decodes the
        # owner and accepts; the lazy scan has to agree.
        wire = (bytes.fromhex("beef 0100 0001 0000 0000 0001")
                + b"\x03abc\x00\x00\x01\x00\x01"
                + b"\xc0\x04" + bytes.fromhex("0029 04d0 00000000 0000"))

        class Eager(Message):
            pass

        for decode in (Eager.from_wire, Message.from_wire):
            message = decode(wire)
            assert message.edns is not None
            assert message.edns.udp_payload == 1232
            assert message.additionals == []


class TestUnknownTypePassthrough:
    """RFC 3597: a record of a type this library does not know keeps it."""

    #: abc. A? answered with one TYPE99 record, owner compressed.
    WIRE = (bytes.fromhex("beef 8180 0001 0001 0000 0000")
            + b"\x03abc\x00\x00\x01\x00\x01"
            + bytes.fromhex("c00c 0063 0001 00000005 0003 616263"))

    def test_touched_message_re_encodes_the_real_type(self):
        message = Message.from_wire(self.WIRE)
        (record,) = message.answers  # a touch: to_wire re-encodes
        assert message.to_wire() == self.WIRE
        assert record.rtype is RecordType.ANY  # no enum member for 99
        assert record.rdata.generic_rtype == 99
        assert record.wire_type == 99

    def test_presentation_form_names_the_real_type(self):
        message = Message.from_wire(self.WIRE)
        assert message.answers[0].to_text() == "abc. 5 IN TYPE99 \\# 3 616263"
        assert "TYPE99" in message.to_text()
        assert " ANY " not in message.to_text()

    def test_forwarded_copy_keeps_the_type(self):
        received = Message.from_wire(self.WIRE)
        relayed = make_response(make_query(Name("abc"), msg_id=0xBEEF),
                                recursion_available=True,
                                answers=[record.with_ttl(4)
                                         for record in received.answers])
        (record,) = Message.from_wire(relayed.to_wire()).answers
        assert record.wire_type == 99 and record.ttl == 4

    def test_known_and_hand_built_types_are_untouched(self):
        known = rr("abc", RecordType.A, A("192.0.2.1"))
        assert known.wire_type == 1 and " A " in known.to_text()
        true_any = rr("abc", RecordType.ANY, GenericRdata(b"x"))
        assert true_any.wire_type == 255 and " ANY " in true_any.to_text()
        opt_in_answers = rr("abc", RecordType.OPT, GenericRdata(b"", 41))
        assert opt_in_answers.wire_type == 41


class TestCompressionInMessages:
    def test_answer_owner_compressed_against_question(self):
        query = make_query(Name("a-very-long-cdn-name.example.com"), msg_id=1)
        response = make_response(query, answers=[
            rr("a-very-long-cdn-name.example.com", RecordType.A, A("192.0.2.1"))])
        wire = response.to_wire()
        # The owner of the answer should be a 2-byte pointer; a full repeat
        # would make the message much longer.
        uncompressed_len = (len(make_response(query).to_wire())
                            + len("a-very-long-cdn-name.example.com") + 2
                            + 10 + 4)
        assert len(wire) < uncompressed_len

    def test_truncated_message_rejected(self):
        query = make_query(Name("example.com"))
        data = query.to_wire()
        with pytest.raises(WireFormatError):
            Message.from_wire(data[:-3])


_label = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
                 min_size=1, max_size=12)
_names = st.lists(_label, min_size=1, max_size=4).map(lambda ls: Name(".".join(ls)))
_ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda v: f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}")


@given(
    msg_id=st.integers(min_value=0, max_value=0xFFFF),
    qname=_names,
    answers=st.lists(st.tuples(_names, _ipv4, st.integers(0, 86400)), max_size=6),
    rcode=st.sampled_from([Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.SERVFAIL, Rcode.REFUSED]),
)
def test_message_roundtrip_property(msg_id, qname, answers, rcode):
    query = make_query(qname, RecordType.A, msg_id=msg_id)
    response = make_response(
        query, rcode=rcode,
        answers=[rr(str(name), RecordType.A, A(addr), ttl)
                 for name, addr, ttl in answers])
    parsed = Message.from_wire(response.to_wire())
    assert parsed.msg_id == msg_id
    assert parsed.rcode == rcode
    assert parsed.question.name == qname
    assert parsed.answers == response.answers


# -- arbitrary wire input ----------------------------------------------------
#
# Queries reach L-DNS/C-DNS from UEs and from other operators' resolvers,
# so the parser's contract is stated over *any* bytes: decoding (from_wire
# plus the sections the lazy view defers) raises nothing but
# WireFormatError, and whatever it accepts can be re-encoded and printed.

def _seed_wires():
    qname = Name("video.demo1.mycdn.ciab.test")
    edge = Name("edge.mycdn.ciab.test")
    query = make_query(qname, msg_id=0x1234,
                       edns=Edns(options=[ClientSubnet("10.45.0.0", 24)]))
    response = make_response(
        query,
        answers=[ResourceRecord(qname, RecordType.CNAME, 30, CNAME(edge)),
                 ResourceRecord(edge, RecordType.A, 30, A("10.233.64.2"))],
        authorities=[ResourceRecord(Name("mycdn.ciab.test"), RecordType.NS,
                                    300, NS(Name("ns1.mycdn.ciab.test")))])
    return [query.to_wire(), response.to_wire()]


_SEED_WIRES = _seed_wires()

_edit = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 4095), st.integers(0, 7)),
    st.tuples(st.just("set"), st.integers(0, 4095), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 4095), st.just(0)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8),
              st.just(0)),
)


def _apply_edits(wire, edits):
    data = bytearray(wire)
    for kind, where, value in edits:
        if kind == "append":
            data += where
        elif not data:
            continue
        elif kind == "flip":
            data[where % len(data)] ^= 1 << value
        elif kind == "set":
            data[where % len(data)] = value
        else:
            del data[where % len(data):]
    return bytes(data)


def _decode_or_reject(wire):
    try:
        message = Message.from_wire(wire)
        message.answers, message.authorities, message.additionals
    except WireFormatError:
        return None
    return message


def _assert_survives(wire):
    message = _decode_or_reject(wire)
    if message is not None:
        assert _decode_or_reject(message.to_wire()) is not None
        assert isinstance(message.to_text(), str)


@given(st.binary(max_size=96))
def test_random_bytes_decode_or_raise_wire_format_error(wire):
    _assert_survives(wire)


@given(st.sampled_from(_SEED_WIRES), st.lists(_edit, min_size=1, max_size=4))
def test_mutated_messages_decode_or_raise_wire_format_error(wire, edits):
    _assert_survives(_apply_edits(wire, edits))
