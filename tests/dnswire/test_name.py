"""Tests for domain name handling."""

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.name import MAX_LABEL_LENGTH, Name, ROOT
from repro.dnswire.wire import WireWriter
from repro.errors import NameError_


class TestConstruction:
    def test_from_text_basic(self):
        name = Name("www.example.com.")
        assert name.labels == (b"www", b"example", b"com")

    def test_trailing_dot_optional(self):
        assert Name("www.example.com") == Name("www.example.com.")

    def test_root(self):
        assert Name(".").is_root
        assert Name("").is_root
        assert ROOT.is_root
        assert ROOT.to_text() == "."

    def test_from_labels(self):
        name = Name.from_labels([b"a", b"b"])
        assert name.to_text() == "a.b."

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_label_max_length_ok(self):
        name = Name("a" * MAX_LABEL_LENGTH + ".com")
        assert len(name.labels[0]) == MAX_LABEL_LENGTH

    def test_name_too_long(self):
        label = "a" * 60
        with pytest.raises(NameError_):
            Name(".".join([label] * 5))

    def test_empty_interior_label_rejected(self):
        with pytest.raises(NameError_):
            Name("www..example.com")

    def test_non_ascii_rejected(self):
        with pytest.raises(NameError_):
            Name("wüw.example.com")


class TestEscapes:
    """RFC 1035 §5.1 presentation escapes: a wire label is any 1–63
    octets, so ``to_text`` must be total; ``Name(text)`` parses no escape."""

    def test_octets_outside_printable_ascii_render_as_decimal(self):
        name = Name.from_labels([b"vid\xa7eo", b"a b", b"\x00", b"test"])
        assert name.to_text() == r"vid\167eo.a\032b.\000.test."

    def test_dot_and_backslash_inside_a_label_are_quoted(self):
        name = Name.from_labels([b"a.b", b"c\\d", b"test"])
        assert name.to_text() == r"a\.b.c\\d.test."

    @pytest.mark.parametrize("text", [
        "a\\", "a\\1", "a\\12", "a\\256.test", "a\\1x2.test", "a\\.\\"])
    def test_malformed_escape_rejected(self, text):
        with pytest.raises(NameError_):
            Name(text)


class TestComparison:
    def test_case_insensitive_equality(self):
        assert Name("WWW.Example.COM") == Name("www.example.com")

    def test_case_insensitive_hash(self):
        assert hash(Name("WWW.Example.COM")) == hash(Name("www.example.com"))

    def test_original_case_preserved(self):
        assert Name("WWW.Example.COM").to_text() == "WWW.Example.COM."

    def test_inequality(self):
        assert Name("a.example.com") != Name("b.example.com")

    def test_not_equal_to_string(self):
        assert Name("example.com") != "example.com"


class TestStructure:
    def test_is_subdomain_of(self):
        assert Name("www.example.com").is_subdomain_of(Name("example.com"))
        assert Name("example.com").is_subdomain_of(Name("example.com"))
        assert not Name("example.com").is_subdomain_of(Name("www.example.com"))
        assert not Name("badexample.com").is_subdomain_of(Name("example.com"))

    def test_everything_is_under_root(self):
        assert Name("www.example.com").is_subdomain_of(ROOT)

    def test_subdomain_case_insensitive(self):
        assert Name("WWW.EXAMPLE.COM").is_subdomain_of(Name("example.com"))

    def test_prepend(self):
        assert Name("example.com").prepend("cdn") == Name("cdn.example.com")

    def test_wire_length(self):
        def encoded(name):
            writer = WireWriter()
            writer.write_name(name)
            return writer.getvalue()
        # 3 + 1 + 7 + 1 + 3 + 1 + root(1) = 17
        assert len(encoded(Name("www.example.com"))) == 17
        assert encoded(ROOT) == b"\x00"


_label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1, max_size=20)


@given(st.lists(_label, min_size=0, max_size=6))
def test_text_roundtrip_property(labels):
    text = ".".join(labels) + "." if labels else "."
    name = Name(text)
    assert Name(name.to_text()) == name
    assert len(name) == len(labels)


#: Labels of arbitrary octets, weighted toward the ones presentation
#: format treats specially (separator, escape, space, controls, high bit).
_octet = st.sampled_from(list(b".\\ \t\x00\x7f\xa7\xff09aZ-_")) \
    | st.integers(0, 255)
_wire_label = st.lists(_octet, min_size=1, max_size=MAX_LABEL_LENGTH).map(bytes)
_wire_labels = st.lists(_wire_label, max_size=8).filter(
    lambda labels: sum(len(label) + 1 for label in labels) + 1 <= 255)


@given(_wire_labels)
def test_any_wire_name_has_a_printable_text_form(labels):
    name = Name.from_labels(labels)
    text = name.to_text()
    assert text.isascii() and text.isprintable() and " " not in text
    assert Name.from_labels(labels).to_text() == text


@given(st.lists(_label, min_size=1, max_size=4), st.lists(_label, min_size=0, max_size=3))
def test_concatenate_preserves_subdomain_property(suffix_labels, prefix_labels):
    suffix = Name(".".join(suffix_labels))
    combined = Name.from_labels(
        tuple(label.encode() for label in prefix_labels) + suffix.labels)
    assert combined.is_subdomain_of(suffix)
