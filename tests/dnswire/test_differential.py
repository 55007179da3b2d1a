"""Lazy vs eager decode, and memoised vs direct encode, must be one codec.

``Message.from_wire`` hands back a :class:`LazyMessage` built by the
in-place, memo-backed fast path; ``Message._from_wire`` is the eager,
obvious parser kept as the reference.  Over arbitrary bytes the two must
accept and reject the same inputs (raising nothing but
``WireFormatError``), agree on every field, and re-encode to the same
octets once touched.  ``cached_wire`` must be byte-identical to
``to_wire`` over generated messages.
"""

import ipaddress
import struct

import pytest
from hypothesis import given, strategies as st

from repro.dnswire import (CNAME, NS, SOA, TXT, A,
                           ClientSubnet, Edns, ExtendedDnsError, Flags,
                           GenericRdata, LazyMessage, Message, Name, Opcode,
                           Question, Rcode, RecordType, ResourceRecord,
                           cached_wire)
from repro.dnswire.edns import OpaqueOption
from repro.errors import WireFormatError
from tests.dnswire.test_message import _SEED_WIRES, _apply_edits, _edit


class EagerMessage(Message):
    """Routes ``from_wire`` to the eager reference parser."""


_FLAG_NAMES = ("qr", "aa", "tc", "rd", "ra", "ad", "cd")


def _decode(cls, wire):
    """The message with every section touched, or ``None`` if rejected."""
    try:
        message = cls.from_wire(wire)
        message.answers, message.authorities, message.additionals
    except WireFormatError:
        return None
    return message


def _fields(message):
    records = message.answers + message.authorities + message.additionals
    return {
        "msg_id": message.msg_id,
        "flags": [getattr(message.flags, flag) for flag in _FLAG_NAMES],
        "opcode": message.opcode,
        "rcode": message.rcode,
        "questions": message.questions,
        "answers": message.answers,
        "authorities": message.authorities,
        "additionals": message.additionals,
        "edns": message.edns,
        # Name equality folds case; spellings must agree octet for octet.
        "spellings": [question.name.labels for question in message.questions]
                     + [record.name.labels for record in records],
        "text": message.to_text(),
    }


def _assert_agree(wire):
    lazy = _decode(Message, wire)
    eager = _decode(EagerMessage, wire)
    assert (lazy is None) == (eager is None), \
        f"lazy {'rejects' if lazy is None else 'accepts'} {wire.hex()}"
    if lazy is None:
        return
    assert isinstance(lazy, LazyMessage) and not isinstance(eager, LazyMessage)
    assert _fields(lazy) == _fields(eager)
    rewire = lazy.to_wire()
    assert rewire == eager.to_wire()
    # What either emits, both read back the same way.
    again = _decode(Message, rewire)
    assert again is not None
    assert _fields(again) == _fields(_decode(EagerMessage, rewire))


@given(st.binary(max_size=96))
def test_random_bytes(wire):
    _assert_agree(wire)


@given(st.sampled_from(_SEED_WIRES), st.lists(_edit, min_size=1, max_size=4))
def test_mutated_seed_wires(wire, edits):
    _assert_agree(_apply_edits(wire, edits))


@pytest.mark.parametrize("seed", range(len(_SEED_WIRES)))
def test_truncation_at_every_offset(seed):
    wire = _SEED_WIRES[seed]
    _assert_agree(wire)
    for cut in range(len(wire)):
        _assert_agree(wire[:cut])


# -- hand-built spellings the fast path must hand to the slow one -----------

def _header(qdcount=1, ancount=0, arcount=0, bits=0x0100):
    return struct.pack("!HHHHHH", 0xBEEF, bits, qdcount, ancount, 0, arcount)


_A_IN = struct.pack("!HH", 1, 1)


def _spelling(lengths):
    """An uncompressed name with labels of the given lengths."""
    return b"".join(bytes([length]) + b"x" * length
                    for length in lengths) + b"\x00"


def _question_wire(name_octets):
    return _header() + name_octets + _A_IN


def _answer_wire(*owner_octets):
    """A response to ``www.example.test A`` with one A record per owner.

    The question name sits at offset 12 (``example`` at 16); the first
    owner starts at 34.
    """
    records = b"".join(owner + struct.pack("!HHIH", 1, 1, 60, 4) + bytes(4)
                       for owner in owner_octets)
    return (_header(ancount=len(owner_octets), bits=0x8180)
            + b"\x03www\x07example\x04test\x00" + _A_IN + records)


#: 255 octets on the wire: 3 x (1 + 63) + (1 + 61) + root.
_NAME_255 = _spelling([63, 63, 63, 61])
_NAME_256 = _spelling([63, 63, 63, 62])

_HAND_BUILT = {
    "name-255": _question_wire(_NAME_255),
    "name-256": _question_wire(_NAME_256),
    "owner-255": _answer_wire(_NAME_255),
    "owner-256": _answer_wire(_NAME_256),
    # The question name at 12 is 18 octets; 237 more in front make 255.
    "owner-255-compressed": _answer_wire(
        _spelling([63, 63, 63, 44])[:-1] + b"\xc0\x0c"),
    "owner-256-compressed": _answer_wire(
        _spelling([63, 63, 63, 45])[:-1] + b"\xc0\x0c"),
    "owner-pointer": _answer_wire(b"\xc0\x0c"),
    "owner-label-then-pointer": _answer_wire(b"\x03cdn\xc0\x10"),
    "owner-pointer-to-pointer": _answer_wire(b"\xc0\x0c", b"\x03cdn\xc0\x22"),
    "question-pointer-to-self": _question_wire(b"\xc0\x0c"),
    "question-pointer-forward": _question_wire(b"\xc0\x20"),
    "question-label-then-self-pointer": _question_wire(b"\x01a\xc0\x0c"),
    "owner-pointer-loop": _answer_wire(b"\x01a\xc0\x22"),
    "owner-pointer-past-end": _answer_wire(b"\xc0\xff"),
    "question-label-type-0x40": _question_wire(b"\x41a\x00"),
    "question-label-type-0x80": _question_wire(b"\x81a\x00"),
    "question-label-type-after-label": _question_wire(b"\x03www\x40\x00"),
    "owner-label-type-0x40": _answer_wire(b"\x40\x00"),
    "owner-label-type-0x80": _answer_wire(b"\x03www\x80\x00"),
    "question-mixed-case": _question_wire(b"\x03WWW\x07Example\x04test\x00"),
    "question-root": _question_wire(b"\x00"),
    "question-non-ascii": _question_wire(b"\x04vi\xa7d\x03a.b\x00"),
    "unknown-type-answer": _header(ancount=1, bits=0x8180)
    + b"\x03abc\x00" + _A_IN
    + b"\xc0\x0c" + struct.pack("!HHIH", 99, 1, 5, 3) + b"abc",
    "opt-with-non-root-owner": _header(arcount=1) + b"\x03abc\x00" + _A_IN
    + b"\x01a\x00" + struct.pack("!HHIH", 41, 1232, 0, 0),
    "two-opts": _header(arcount=2) + b"\x03abc\x00" + _A_IN
    + b"\x00" + struct.pack("!HHIH", 41, 512, 0, 0)
    + b"\x00" + struct.pack("!HHIH", 41, 1232, 0x01000000, 0),
}


@pytest.mark.parametrize("label", sorted(_HAND_BUILT))
def test_hand_built_wire(label):
    wire = _HAND_BUILT[label]
    _assert_agree(wire)
    # ...and once more, so a spelling the first pass memoised (or
    # refused to) is read the same way on the second.
    _assert_agree(wire)


def test_hand_built_wires_cover_both_outcomes():
    accepted = {label for label, wire in _HAND_BUILT.items()
                if _decode(EagerMessage, wire) is not None}
    assert {"name-255", "owner-255", "owner-255-compressed", "owner-pointer",
            "owner-label-then-pointer", "owner-pointer-to-pointer",
            "question-mixed-case", "question-root", "question-non-ascii",
            "unknown-type-answer", "two-opts"} == accepted


# -- generated messages -------------------------------------------------------

_label = st.binary(min_size=1, max_size=12)
_names = st.lists(_label, min_size=0, max_size=5).map(Name.from_labels)
_ipv4 = st.ip_addresses(v=4).map(str)
_ipv6 = st.ip_addresses(v=6).map(str)
_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)

_rdata = st.one_of(
    _ipv4.map(lambda address: (RecordType.A, A(address))),
    _ipv6.map(lambda address: (RecordType.AAAA, GenericRdata(
        ipaddress.IPv6Address(address).packed, RecordType.AAAA))),
    _names.map(lambda target: (RecordType.CNAME, CNAME(target))),
    _names.map(lambda target: (RecordType.NS, NS(target))),
    st.lists(st.binary(max_size=40), min_size=1, max_size=3).map(
        lambda chunks: (RecordType.TXT, TXT(tuple(chunks)))),
    st.tuples(_names, _names, _u32, _u32, _u32, _u32, _u32).map(
        lambda soa: (RecordType.SOA, SOA(*soa))),
    st.tuples(st.binary(max_size=16), st.sampled_from([99, 65280])).map(
        lambda raw: (RecordType.ANY, GenericRdata(*raw))),
)
_records = st.tuples(_names, _rdata, st.integers(0, 0x7FFFFFFF)).map(
    lambda parts: ResourceRecord(parts[0], parts[1][0], parts[2], parts[1][1]))

_options = st.one_of(
    st.tuples(_ipv4, st.integers(0, 32), st.integers(0, 32)).map(
        lambda ecs: ClientSubnet(*ecs)),
    st.tuples(_u16, st.text(max_size=12)).map(
        lambda ede: ExtendedDnsError(*ede)),
    st.tuples(st.sampled_from([10, 65001]), st.binary(max_size=12)).map(
        lambda raw: OpaqueOption(*raw)),
)
_edns = st.one_of(st.none(), st.builds(
    Edns, udp_payload=st.integers(512, 4096), version=st.integers(0, 1),
    dnssec_ok=st.booleans(), options=st.lists(_options, max_size=3)))


@st.composite
def _messages(draw):
    edns = draw(_edns)
    # Rcodes above 15 ride in the OPT record; without one they cannot
    # be encoded at all.
    rcodes = list(Rcode) if edns is not None else \
        [rcode for rcode in Rcode if rcode < 16]
    message = Message(
        msg_id=draw(_u16),
        flags=Flags(*(draw(st.booleans()) for _ in _FLAG_NAMES)),
        opcode=draw(st.sampled_from(list(Opcode))),
        rcode=draw(st.sampled_from(rcodes)))
    message.questions = [
        Question(name, rtype) for name, rtype in draw(st.lists(
            st.tuples(_names, st.sampled_from(list(RecordType))),
            max_size=2))]
    message.answers = draw(st.lists(_records, max_size=4))
    message.authorities = draw(st.lists(_records, max_size=2))
    message.additionals = draw(st.lists(_records, max_size=2))
    message.edns = edns
    return message


@given(_messages())
def test_cached_wire_equals_to_wire(message):
    wire = message.to_wire()
    assert cached_wire(message) == wire  # memo miss (or an earlier example's)
    assert cached_wire(message) == wire  # memo hit
    message.msg_id ^= 0xFFFF
    assert cached_wire(message) == message.to_wire()  # id spliced on the tail


@given(_messages())
def test_generated_messages_decode_alike(message):
    wire = message.to_wire()
    _assert_agree(wire)
    parsed = Message.from_wire(wire)
    assert cached_wire(parsed) is wire  # pristine view: the bytes stand
    parsed.answers  # a touch sends it through the memo like any message
    assert cached_wire(parsed) == parsed.to_wire()
