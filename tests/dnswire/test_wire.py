"""Tests for the wire buffers and name compression."""

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.name import Name
from repro.dnswire.wire import (HEADER, QUESTION_FIXED, RR_FIXED, WireReader,
                                WireWriter)
from repro.errors import (
    CompressionLoopError,
    TruncatedMessageError,
    WireFormatError,
)


class TestPrimitives:
    def test_integers_roundtrip(self):
        writer = WireWriter()
        writer.write_u8(0xAB)
        writer.write_u16(0xBEEF)
        writer.write_u32(0xDEADBEEF)
        reader = WireReader(writer.getvalue())
        assert reader.read_u8() == 0xAB
        assert reader.read_u16() == 0xBEEF
        assert reader.read_u32() == 0xDEADBEEF
        assert reader.remaining == 0

    def test_bytes_roundtrip(self):
        writer = WireWriter()
        writer.write_bytes(b"hello")
        assert WireReader(writer.getvalue()).read_bytes(5) == b"hello"

    def test_truncated_read_raises(self):
        reader = WireReader(b"\x01")
        with pytest.raises(TruncatedMessageError):
            reader.read_u16()

    def test_truncation_message_names_need_offset_and_have(self):
        reader = WireReader(b"\x00\x01\x02")
        reader.read_u8()
        for read, count in ((reader.read_u32, 4),
                            (lambda: reader.read_bytes(3), 3),
                            (lambda: reader.skip(3), 3),
                            (lambda: reader.read_struct(RR_FIXED), 10)):
            with pytest.raises(TruncatedMessageError) as caught:
                read()
            assert str(caught.value) == \
                f"need {count} octets at offset 1, have 2"
            assert reader.offset == 1  # a refused read consumes nothing
        assert reader.read_u16() == 0x0102
        with pytest.raises(TruncatedMessageError, match="need 1 octets at "
                                                        "offset 3, have 0"):
            reader.read_u8()

    def test_read_struct_takes_a_fixed_layout_whole(self):
        wire = bytes.fromhex("beef 8180 0001 0002 0003 0004"
                             "0001 0001 0000003c 0004")
        reader = WireReader(wire)
        assert reader.read_struct(HEADER) == (0xBEEF, 0x8180, 1, 2, 3, 4)
        assert reader.offset == 12
        assert reader.read_struct(RR_FIXED) == (1, 1, 60, 4)
        assert reader.remaining == 0
        reader.seek(12)
        assert reader.read_struct(QUESTION_FIXED) == (1, 1)

    def test_skip_advances_without_reading(self):
        reader = WireReader(b"abcdef")
        reader.skip(4)
        assert reader.offset == 4 and reader.read_bytes(2) == b"ef"
        reader.skip(0)
        with pytest.raises(TruncatedMessageError):
            reader.skip(1)

    def test_patch_u16(self):
        writer = WireWriter()
        offset = writer.reserve_u16()
        writer.write_bytes(b"xyz")
        writer.patch_u16(offset, 3)
        reader = WireReader(writer.getvalue())
        assert reader.read_u16() == 3

    def test_seek_out_of_range(self):
        with pytest.raises(WireFormatError):
            WireReader(b"ab").seek(5)


class TestNames:
    def test_simple_name_roundtrip(self):
        writer = WireWriter()
        writer.write_name(Name("www.example.com"))
        reader = WireReader(writer.getvalue())
        assert reader.read_name() == Name("www.example.com")

    def test_root_name_is_single_zero(self):
        writer = WireWriter()
        writer.write_name(Name("."))
        assert writer.getvalue() == b"\x00"

    def test_uncompressed_encoding(self):
        writer = WireWriter()
        writer.write_name(Name("ab.c"))
        assert writer.getvalue() == b"\x02ab\x01c\x00"

    def test_compression_reuses_suffix(self):
        writer = WireWriter()
        writer.write_name(Name("www.example.com"))
        first_len = len(writer)
        writer.write_name(Name("mail.example.com"))
        data = writer.getvalue()
        # Second name should be "mail" + 2-byte pointer, not a full encoding.
        assert len(data) - first_len == len(b"\x04mail") + 2
        reader = WireReader(data)
        assert reader.read_name() == Name("www.example.com")
        assert reader.read_name() == Name("mail.example.com")

    def test_compression_whole_name_pointer(self):
        writer = WireWriter()
        writer.write_name(Name("example.com"))
        first_len = len(writer)
        writer.write_name(Name("example.com"))
        assert len(writer.getvalue()) - first_len == 2

    def test_compression_case_insensitive(self):
        writer = WireWriter()
        writer.write_name(Name("EXAMPLE.com"))
        first_len = len(writer)
        writer.write_name(Name("example.COM"))
        assert len(writer.getvalue()) - first_len == 2

    def test_compression_disabled(self):
        writer = WireWriter()
        writer.write_name(Name("example.com"))
        first_len = len(writer)
        writer.write_name(Name("example.com"), compress=False)
        assert len(writer.getvalue()) == 2 * first_len

    @pytest.mark.parametrize("octets, is_root, end", [
        (b"\x00rest", True, 1),
        (b"\x02ab\x01c\x00rest", False, 6),
        (b"\xc0\x0crest", False, 2),           # pointer: not followed
        (b"\x02ab\xc0\x00rest", False, 5),
    ])
    def test_skip_name_steps_over_one_name(self, octets, is_root, end):
        reader = WireReader(octets)
        assert reader.skip_name() is is_root
        assert reader.offset == end

    @pytest.mark.parametrize("octets, error, message", [
        (b"", TruncatedMessageError, "need 1 octets at offset 0, have 0"),
        (b"\x02ab", TruncatedMessageError,
         "need 1 octets at offset 3, have 0"),
        (b"\x05ab", TruncatedMessageError,
         "need 5 octets at offset 1, have 2"),
        (b"\xc0", TruncatedMessageError, "need 1 octets at offset 1, have 0"),
        (b"\x02ab\x40\x00", WireFormatError, "unsupported label type 0x40"),
        (b"\x80\x00", WireFormatError, "unsupported label type 0x80"),
    ])
    def test_skip_and_read_name_refuse_alike(self, octets, error, message):
        for walk in (WireReader.skip_name, WireReader.read_name):
            with pytest.raises(error) as caught:
                walk(WireReader(octets))
            assert type(caught.value) is error
            assert str(caught.value) == message

    def test_reader_position_after_pointer(self):
        writer = WireWriter()
        writer.write_name(Name("example.com"))
        writer.write_name(Name("www.example.com"))
        writer.write_u16(0x1234)
        reader = WireReader(writer.getvalue())
        reader.read_name()
        assert reader.read_name() == Name("www.example.com")
        assert reader.read_u16() == 0x1234

    def test_pointer_loop_detected(self):
        # A name at offset 0 that is a pointer to itself.
        with pytest.raises(CompressionLoopError):
            WireReader(b"\xc0\x00").read_name()

    def test_mutual_pointer_loop_detected(self):
        # label "a" at 0, then pointer at 2 back to 0: reading from offset 0
        # yields a -> pointer(2)->0 -> a -> ... must be caught.
        data = b"\x01a\xc0\x00"
        with pytest.raises(CompressionLoopError):
            WireReader(data).read_name()

    def test_forward_pointer_rejected(self):
        data = b"\xc0\x04\x00\x00\x01a\x00"
        with pytest.raises(CompressionLoopError):
            WireReader(data).read_name()

    def test_unsupported_label_type(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x80abc").read_name()

    def test_truncated_name(self):
        with pytest.raises(TruncatedMessageError):
            WireReader(b"\x05ab").read_name()


_label = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
                 min_size=1, max_size=15)
_names = st.lists(_label, min_size=0, max_size=5).map(
    lambda labels: Name(".".join(labels)) if labels else Name("."))


@given(st.lists(_names, min_size=1, max_size=8))
def test_many_names_roundtrip_with_compression(names):
    writer = WireWriter()
    for name in names:
        writer.write_name(name)
    reader = WireReader(writer.getvalue())
    for name in names:
        assert reader.read_name() == name
    assert reader.remaining == 0


@given(st.lists(_names, min_size=1, max_size=8))
def test_compression_never_grows_output(names):
    compressed = WireWriter()
    plain = WireWriter()
    for name in names:
        compressed.write_name(name)
        plain.write_name(name, compress=False)
    assert len(compressed) <= len(plain)
