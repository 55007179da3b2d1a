"""Wire-format buffers with RFC 1035 §4.1.4 name compression.

:class:`WireWriter` appends big-endian integers, raw bytes, and domain
names, compressing repeated name suffixes with 2-octet pointers.
:class:`WireReader` is the mirror image, following compression pointers with
loop protection; it reads the buffer in place and interns the uncompressed
names it decodes (see :data:`_NAME_MEMO`).
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.dnswire.name import MAX_LABEL_LENGTH, MAX_NAME_LENGTH, Name
from repro.errors import CompressionLoopError, TruncatedMessageError, WireFormatError

#: A compression pointer is two octets with the top two bits set, leaving 14
#: bits of offset, so only offsets below this bound are compressible.
_MAX_POINTER_TARGET = 0x3FFF

#: Fixed layouts the message codec takes in one :meth:`WireReader.read_struct`.
HEADER = struct.Struct("!HHHHHH")  # id, flag bits, qd/an/ns/ar counts
QUESTION_FIXED = struct.Struct("!HH")  # type, class
RR_FIXED = struct.Struct("!HHIH")  # type, class, ttl, rdlength
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: Content-keyed memo behind :meth:`WireReader.read_name`: the raw octets
#: of an uncompressed name -> the :class:`Name` they decode to.  The key
#: preserves case, so two spellings of one name stay two objects, each
#: printing as it was sent.  Bounded and cleared wholesale when full,
#: like the encode memo in :mod:`repro.dnswire.message`, whose
#: ``clear_wire_memo`` empties both.  Sharing is safe because ``Name`` is
#: immutable; only a successful decode is ever inserted.
_NAME_MEMO: Dict[bytes, Name] = {}
_NAME_MEMO_MAX = 4096


class WireWriter:
    """Serialises DNS data, compressing names against earlier output."""

    def __init__(self) -> None:
        self._parts = bytearray()
        self._offsets: Dict[Tuple[bytes, ...], int] = {}

    def __len__(self) -> int:
        return len(self._parts)

    def getvalue(self) -> bytes:
        """The octets written so far."""
        return bytes(self._parts)

    # -- primitive writers ----------------------------------------------------

    def write_u8(self, value: int) -> None:
        """Append one unsigned octet."""
        self._parts += struct.pack("!B", value)

    def write_u16(self, value: int) -> None:
        """Append a big-endian 16-bit integer."""
        self._parts += struct.pack("!H", value)

    def write_u32(self, value: int) -> None:
        """Append a big-endian 32-bit integer."""
        self._parts += struct.pack("!I", value)

    def write_bytes(self, data: bytes) -> None:
        """Append raw octets."""
        self._parts += data

    # -- names -----------------------------------------------------------------

    def write_name(self, name: Name, compress: bool = True) -> None:
        """Write ``name``, emitting a pointer for any known suffix.

        Compression keys are case-folded label tuples, so ``WWW.Example.com``
        compresses against ``www.example.com`` (RFC 4343 allows this because
        the protocol is case-insensitive; we keep the folded spelling).
        """
        labels = name.labels
        index = 0
        while index < len(labels):
            suffix = tuple(label.lower() for label in labels[index:])
            known = self._offsets.get(suffix) if compress else None
            if known is not None:
                self.write_u16(0xC000 | known)
                return
            if len(self._parts) <= _MAX_POINTER_TARGET:
                self._offsets[suffix] = len(self._parts)
            label = labels[index]
            self.write_u8(len(label))
            self.write_bytes(label)
            index += 1
        self.write_u8(0)  # root label

    # -- length-prefixed sections ----------------------------------------------

    def reserve_u16(self) -> int:
        """Write a 16-bit placeholder; return its offset for :meth:`patch_u16`."""
        offset = len(self._parts)
        self.write_u16(0)
        return offset

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a reserved 16-bit slot (see ``reserve_u16``)."""
        struct.pack_into("!H", self._parts, offset, value)


class WireReader:
    """Deserialises DNS data in place, following compression pointers.

    Every primitive checks its bounds and then reads ``data`` at the
    cursor — ``unpack_from`` for integers, indexing for octets — so the
    only ``bytes`` a parse allocates are the ones it hands back (labels,
    rdata, option payloads).  Skipping advances the cursor and reads
    nothing.
    """

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def seek(self, offset: int) -> None:
        """Move the read cursor to ``offset``."""
        if not 0 <= offset <= len(self._data):
            raise WireFormatError(f"seek out of range: {offset}")
        self._offset = offset

    def _truncated(self, count: int, at: int) -> TruncatedMessageError:
        return TruncatedMessageError(
            f"need {count} octets at offset {at}, "
            f"have {len(self._data) - at}")

    def _advance(self, count: int) -> int:
        """Step the cursor past ``count`` octets; return where they start."""
        at = self._offset
        end = at + count
        if end > len(self._data):
            raise self._truncated(count, at)
        self._offset = end
        return at

    # -- primitive readers -------------------------------------------------------

    def read_u8(self) -> int:
        """Read one unsigned octet."""
        return self._data[self._advance(1)]

    def read_u16(self) -> int:
        """Read a big-endian 16-bit integer."""
        return _U16.unpack_from(self._data, self._advance(2))[0]

    def read_u32(self) -> int:
        """Read a big-endian 32-bit integer."""
        return _U32.unpack_from(self._data, self._advance(4))[0]

    def read_struct(self, layout: struct.Struct) -> Tuple[int, ...]:
        """Read one fixed layout (:data:`HEADER`, :data:`RR_FIXED`, ...) whole."""
        return layout.unpack_from(self._data, self._advance(layout.size))

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` raw octets."""
        at = self._advance(count)
        return self._data[at:at + count]

    def skip(self, count: int) -> None:
        """Advance past ``count`` octets without reading them."""
        self._advance(count)

    # -- names ---------------------------------------------------------------------

    def skip_name(self) -> bool:
        """Advance past one (possibly compressed) name without decoding it.

        Returns ``True`` when the name is the literal root label (a single
        zero octet) — the structural scan in :mod:`repro.dnswire.message`
        needs exactly that bit to validate OPT owners.  A compression
        pointer terminates the walk without being followed; its target is
        validated when the name is actually decoded with
        :meth:`read_name`.
        """
        data = self._data
        size = len(data)
        start = at = self._offset
        while True:
            if at >= size:
                raise self._truncated(1, at)
            octet = data[at]
            at += 1
            if octet & 0xC0 == 0xC0:
                if at >= size:  # low pointer octet
                    raise self._truncated(1, at)
                self._offset = at + 1
                return False
            if octet & 0xC0:
                raise WireFormatError(f"unsupported label type 0x{octet:02x}")
            if octet == 0:
                self._offset = at
                return at == start + 1
            if at + octet > size:
                raise self._truncated(octet, at)
            at += octet

    def read_name(self) -> Name:
        """Read a possibly-compressed name starting at the current offset.

        An *uncompressed* spelling — length octets of 1–63 closed by the
        root label, 255 octets at most — is looked up whole in
        :data:`_NAME_MEMO` first; a hit hands back the shared immutable
        :class:`Name`.  Everything else (a pointer, another label type,
        a truncation, an over-long name) is decoded, or rejected, by
        :meth:`_decode_name` alone, and is never memoised.
        """
        data = self._data
        start = at = self._offset
        try:
            length = data[at]
            while 0 < length <= MAX_LABEL_LENGTH:
                at += length + 1
                length = data[at]
        except IndexError:
            length = -1  # cut short; the loop says where
        if length or at - start >= MAX_NAME_LENGTH:
            return self._decode_name()
        spelling = data[start:at + 1]
        name = _NAME_MEMO.get(spelling)
        if name is None:
            name = self._decode_name()
            if len(_NAME_MEMO) >= _NAME_MEMO_MAX:
                # repro: allow[RACE001] pure content-keyed memo like _WIRE_MEMO: a spelling fully determines its Name, so hit/miss/eviction never changes any output
                _NAME_MEMO.clear()
            # repro: allow[RACE001] same memo — insertion is value-deterministic and per-process (workers fork with their own copy)
            _NAME_MEMO[spelling] = name
        else:
            self._offset = at + 1
        return name

    def _decode_name(self) -> Name:
        labels = []
        total_length = 1
        return_to = None
        # Every jump target must be strictly below all previously visited
        # positions; a strictly decreasing sequence of offsets cannot loop.
        lowest_seen = self._offset
        while True:
            lowest_seen = min(lowest_seen, self._offset)
            octet = self.read_u8()
            if octet & 0xC0 == 0xC0:
                pointer = ((octet & 0x3F) << 8) | self.read_u8()
                if return_to is None:
                    return_to = self._offset
                if pointer >= lowest_seen:
                    raise CompressionLoopError(
                        f"compression pointer to {pointer} does not move "
                        f"strictly backwards (lowest visited {lowest_seen})"
                    )
                self.seek(pointer)
            elif octet & 0xC0:
                raise WireFormatError(f"unsupported label type 0x{octet:02x}")
            elif octet == 0:
                break
            else:
                label = self.read_bytes(octet)
                total_length += octet + 1
                if total_length > MAX_NAME_LENGTH:
                    raise WireFormatError("decoded name exceeds 255 octets")
                labels.append(label)
        if return_to is not None:
            self.seek(return_to)
        # Non-empty, at most 63 octets (the label-type check) and 255 in
        # total (counted above): nothing is left for Name to re-validate.
        return Name._from_valid(tuple(labels))
