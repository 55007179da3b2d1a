"""Domain names with RFC 1035 label rules.

A :class:`Name` is an immutable sequence of labels.  Absolute names end with
the empty root label; the module-level constant :data:`ROOT` is the root
name itself.  Comparisons, hashing, and subdomain checks are
case-insensitive, as required by RFC 4343, while the original spelling is
preserved for display.

A label is 1–63 arbitrary octets — the wire reader accepts whatever a
peer sends — so presentation format follows RFC 1035 §5.1: octets
``0x21``–``0x7e`` render as themselves, except that a ``.`` or ``\\``
*inside* a label renders as ``\\.`` / ``\\\\``; every other octet
(space and controls included) renders as a three-digit decimal escape
``\\DDD``.  That rendering is for display: parsing text rejects a
backslash, and text that is not ASCII; IDNA is out of scope.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

#: Octets that stand for themselves in presentation format.  ``.`` is
#: in the set as the label *separator*; :meth:`Name.to_text` counts the
#: separators to learn whether a label holds one of its own.
_PLAIN_OCTETS = bytes(octet for octet in range(0x21, 0x7F) if octet != 0x5C)

#: octet -> its presentation form inside a label.
_ESCAPED = tuple(
    "\\" + chr(octet) if octet in b".\\"
    else chr(octet) if octet in _PLAIN_OCTETS
    else f"\\{octet:03d}"
    for octet in range(256))


def _validate_label(label: bytes) -> None:
    if len(label) == 0:
        raise NameError_("empty label (root label is only allowed last)")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")


class Name:
    """An immutable DNS domain name.

    Construct from labels with :meth:`from_labels` or from presentation
    format with ``Name("example.com.")``.
    """

    __slots__ = ("_labels", "_folded", "_hash", "_text")

    def __init__(self, text: str = "") -> None:
        labels = _text_to_labels(text)
        self._init_from(labels)

    # -- constructors -------------------------------------------------------

    def _init_from(self, labels: Tuple[bytes, ...]) -> None:
        total = sum(len(label) + 1 for label in labels) + 1
        if total > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        for label in labels:
            _validate_label(label)
        self._install(labels, tuple([label.lower() for label in labels]))

    def _install(self, labels: Tuple[bytes, ...],
                 folded: Tuple[bytes, ...]) -> None:
        self._labels = labels
        self._folded = folded
        #: ``hash(folded)`` and the presentation form, both filled in on
        #: first use — names are immutable, and the hot paths (memo keys,
        #: zone dict probes, span attributes, allocation hashing) hash
        #: and stringify the same name object repeatedly.
        self._hash: Optional[int] = None
        self._text: Optional[str] = None

    @classmethod
    def _from_valid(cls, labels: Tuple[bytes, ...],
                    folded: Optional[Tuple[bytes, ...]] = None) -> "Name":
        """Install labels already known to meet the RFC 1035 limits.

        Only for the two callers that have just established them: the
        wire reader, whose loop admits 1–63 octet labels and counts the
        255-octet total, and the slicing methods below, whose labels
        (and ``folded`` forms) come out of a name that passed
        :meth:`_init_from`.  Everything else goes through the validating
        constructors.
        """
        name = cls.__new__(cls)
        name._install(labels, folded if folded is not None
                      else tuple([label.lower() for label in labels]))
        return name

    @classmethod
    def from_labels(cls, labels: Iterable[bytes]) -> "Name":
        """Build a name from an iterable of label byte strings (no root label)."""
        name = cls.__new__(cls)
        name._init_from(tuple(labels))
        return name

    # -- accessors -----------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        """The labels, most-specific first, excluding the root label."""
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        """Render in absolute presentation format (trailing dot)."""
        text = self._text
        if text is None:
            labels = self._labels
            raw = b".".join(labels)
            if not labels:
                text = "."
            elif (raw.translate(None, _PLAIN_OCTETS)
                    or raw.count(b".") != len(labels) - 1):
                text = ".".join("".join(_ESCAPED[octet] for octet in label)
                                for label in labels) + "."
            else:
                text = raw.decode("ascii") + "."
            self._text = text
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __len__(self) -> int:
        return len(self._labels)

    # -- comparisons (case-insensitive) --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._folded == other._folded

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._folded)
        return value

    def __reduce__(self) -> Tuple[object, ...]:
        # The stored hash is seeded per process (PYTHONHASHSEED), so a
        # pickle carries the labels alone and the receiver rebuilds.
        return Name.from_labels, (self._labels,)

    # -- structure ------------------------------------------------------------

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or sits below it."""
        depth = len(other._folded)
        # A longer ``other`` compares against all of ``self`` and differs.
        return not depth or self._folded[-depth:] == other._folded

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Labels of ``self`` relative to ``origin``.

        Raises :class:`repro.errors.NameError_` if ``self`` is not under
        ``origin``.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not a subdomain of {origin}")
        if origin.is_root:
            return self._labels
        return self._labels[: len(self._labels) - len(origin._labels)]

    def prepend(self, label: str) -> "Name":
        """A new name with ``label`` added on the left."""
        return Name.from_labels((label.encode("ascii"),) + self._labels)

    def split_prefix(self, depth: int) -> Tuple[Tuple[bytes, ...], "Name"]:
        """Split into (leftmost ``depth`` labels, remaining name)."""
        if depth > len(self._labels):
            raise NameError_(f"cannot split {depth} labels off {self}")
        return self._labels[:depth], Name._from_valid(self._labels[depth:],
                                                      self._folded[depth:])


def _text_to_labels(text: str) -> Tuple[bytes, ...]:
    stripped = text.strip()
    if stripped in ("", "."):
        return ()
    try:
        raw = stripped.encode("ascii")
    except UnicodeEncodeError:
        raise NameError_(f"non-ASCII label in {text!r}") from None
    if b"\\" in raw:
        raise NameError_(f"escapes are not parsed: {text!r}")
    if raw.endswith(b"."):
        raw = raw[:-1]
    return tuple(raw.split(b"."))


#: The root domain name.
ROOT = Name(".")
