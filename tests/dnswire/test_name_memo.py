"""The decoded-name memo may share objects but never change an answer.

``WireReader.read_name`` interns uncompressed spellings in
``wire._NAME_MEMO`` and installs labels through ``Name``'s trusted
constructor.  These tests pin what that rests on: the key is the raw,
case-preserving spelling; only successful uncompressed decodes are
inserted; the memo is bounded; and the public ``Name`` constructors
still validate everything.
"""

import pickle

import pytest

from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import Message, clear_wire_memo, make_query
from repro.dnswire.name import Name
from repro.dnswire import message as message_module
from repro.dnswire import wire as wire_module
from repro.dnswire.wire import WireReader
from repro.errors import (CompressionLoopError, NameError_,
                          TruncatedMessageError, WireFormatError)

_NAME_MEMO = wire_module._NAME_MEMO


@pytest.fixture(autouse=True)
def empty_memos():
    clear_wire_memo()
    yield
    clear_wire_memo()


def _spell(*labels):
    return b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"


def _read(octets, offset=0):
    return WireReader(octets, offset).read_name()


UPPER = _spell(b"WWW", b"Example", b"test")
LOWER = _spell(b"www", b"example", b"test")


class TestSpellingIsTheKey:
    @pytest.mark.parametrize("first, second", [(UPPER, LOWER), (LOWER, UPPER)])
    def test_two_spellings_of_one_name_stay_two_objects(self, first, second):
        one, other = _read(first), _read(second)
        assert one == other and hash(one) == hash(other)
        assert one is not other
        assert {one.to_text(), other.to_text()} == \
            {"WWW.Example.test.", "www.example.test."}
        # The second decode of each spelling is the memoised object,
        # still printing as it was sent.
        assert _read(first) is one and _read(second) is other
        assert _read(UPPER).to_text() == "WWW.Example.test."
        assert _read(LOWER).to_text() == "www.example.test."

    def test_escaped_octets_round_trip_through_the_memo(self):
        spelling = _spell(b"vid\xa7eo", b"a.b", b"back\\slash", b"test")
        first = _read(spelling)
        again = _read(spelling)
        assert again is first
        assert first.labels == (b"vid\xa7eo", b"a.b", b"back\\slash", b"test")
        assert first.to_text() == "vid\\167eo.a\\.b.back\\\\slash.test."

    def test_memoised_name_equals_the_validated_one(self):
        decoded = _read(LOWER)
        built = Name("www.example.test")
        assert decoded == built and hash(decoded) == hash(built)
        assert decoded.labels == built.labels

    def test_root_and_cursor(self):
        reader = WireReader(b"\x00" + LOWER + b"\xff")
        assert reader.read_name().is_root and reader.offset == 1
        assert reader.read_name() == Name("www.example.test")
        assert reader.offset == 1 + len(LOWER)
        reader.seek(1)
        reader.read_name()  # the memo hit leaves the cursor where the miss did
        assert reader.offset == 1 + len(LOWER)


#: 3 x (1 + 63) + (1 + 62) + root = 256 octets: one too many.
NAME_256 = _spell(b"x" * 63, b"x" * 63, b"x" * 63, b"x" * 62)
NAME_255 = _spell(b"x" * 63, b"x" * 63, b"x" * 63, b"x" * 61)


class TestOnlySuccessfulUncompressedDecodesAreInserted:
    @pytest.mark.parametrize("octets, offset, error", [
        (LOWER[:-1], 0, TruncatedMessageError),       # no root label
        (LOWER[:6], 0, TruncatedMessageError),        # cut inside a label
        (b"", 0, TruncatedMessageError),
        (NAME_256, 0, WireFormatError),
        (b"\x41a\x00", 0, WireFormatError),           # label type 0x40
        (b"\x03www\x80\x00", 0, WireFormatError),     # label type 0x80
        (b"\xc0\x00", 0, CompressionLoopError),       # points at itself
        (LOWER + b"\x01a\xc0\x20", len(LOWER), CompressionLoopError),
    ])
    def test_rejected_spelling_is_rejected_alike_twice(self, octets, offset,
                                                       error):
        with pytest.raises(error) as first:
            _read(octets, offset)
        assert type(first.value) is error
        assert not _NAME_MEMO
        with pytest.raises(error) as second:
            _read(octets, offset)
        assert type(second.value) is error
        assert str(second.value) == str(first.value)
        assert not _NAME_MEMO

    def test_compressed_spelling_decodes_but_is_not_inserted(self):
        octets = LOWER + b"\x03cdn\xc0\x04"  # cdn + pointer to "example"
        name = _read(octets, len(LOWER))
        assert name.to_text() == "cdn.example.test."
        assert not _NAME_MEMO
        assert _read(octets, len(LOWER)) is not name

    def test_255_octets_is_memoised_256_is_not(self):
        assert _read(NAME_255) is _read(NAME_255)
        assert list(_NAME_MEMO) == [NAME_255]


class TestBound:
    def test_memo_never_exceeds_its_bound_and_survives_overflow(self):
        bound = wire_module._NAME_MEMO_MAX
        for index in range(bound + 50):
            spelling = _spell(b"obj%d" % index, b"test")
            assert _read(spelling).labels == (b"obj%d" % index, b"test")
            assert len(_NAME_MEMO) <= bound
        # Cleared wholesale at the bound, then refilled: the last
        # spellings are in, the first are gone, and both still decode.
        assert 0 < len(_NAME_MEMO) <= 50
        assert _read(_spell(b"obj0", b"test")).to_text() == "obj0.test."
        assert _read(spelling) is _read(spelling)

    def test_clear_wire_memo_empties_both(self):
        query = make_query(Name("www.example.test"), msg_id=9)
        Message.from_wire(message_module.cached_wire(query))
        assert _NAME_MEMO and message_module._WIRE_MEMO
        clear_wire_memo()
        assert not _NAME_MEMO and not message_module._WIRE_MEMO


class TestWhatMessagesShare:
    def test_equal_wire_shares_the_name_and_nothing_mutable(self):
        wire = make_query(Name("Video.demo1.mycdn.ciab.test"), msg_id=3,
                          edns=Edns(options=[ClientSubnet("10.45.0.0", 24)])
                          ).to_wire()
        one, other = Message.from_wire(wire), Message.from_wire(wire)
        assert one.question.name is other.question.name
        assert one.question.name.to_text() == "Video.demo1.mycdn.ciab.test."
        assert one.question is not other.question
        assert one.flags is not other.flags
        assert one.edns is not other.edns
        assert one.edns.options[0] is not other.edns.options[0]
        # Mutating one message's parts leaves the other's alone.
        one.flags.rd = False
        one.edns.options.clear()
        one.questions.clear()
        assert other.flags.rd and other.edns.client_subnet is not None
        assert other.question.name.to_text() == "Video.demo1.mycdn.ciab.test."
        assert Message.from_wire(wire).to_wire() == wire


class TestPublicConstructorsStillValidate:
    @pytest.mark.parametrize("labels", [
        [b""],
        [b"www", b"", b"test"],
        [b"x" * 64],
        [b"x" * 63, b"x" * 63, b"x" * 63, b"x" * 62],
    ])
    def test_from_labels_rejects(self, labels):
        with pytest.raises(NameError_):
            Name.from_labels(labels)

    @pytest.mark.parametrize("text", [
        "www..test", "x" * 64 + ".test",
        ".".join(["x" * 63, "x" * 63, "x" * 63, "x" * 62]),
    ])
    def test_text_constructors_reject(self, text):
        with pytest.raises(NameError_):
            Name(text)

    def test_prepend_rejects(self):
        with pytest.raises(NameError_):
            Name("test").prepend("x" * 64)
        with pytest.raises(NameError_):
            Name("test").prepend("")

    def test_slices_of_a_valid_name_are_valid_names(self):
        name = Name("A.b.C.test")
        rest = Name.from_labels(name.labels[2:])
        assert name.labels[:2] == (b"A", b"b") and rest.to_text() == "C.test."
        assert rest == Name("c.test") and hash(rest) == hash(Name("c.test"))
        assert Name.from_labels(name.labels[4:]).is_root


def test_pickle_carries_labels_not_the_seeded_hash():
    name = Name("WWW.Example.test")
    hash(name), name.to_text()
    rebuilt, arguments = name.__reduce__()
    assert rebuilt == Name.from_labels
    assert arguments == ((b"WWW", b"Example", b"test"),)
    copy = pickle.loads(pickle.dumps(name))
    assert copy == name and hash(copy) == hash(name)
    assert copy.to_text() == "WWW.Example.test."
