"""DNS message codec: header, question, resource records, full messages.

Every message moving between simulated hosts is serialised by
:func:`cached_wire` (byte-identical to :meth:`Message.to_wire`), so
compression, EDNS rendering, and section bookkeeping are exercised on every
query the experiments run.  The receiver reads the sender's object beside
the bytes (``Datagram.view``); :meth:`Message.from_wire` parses bytes that
arrive without one.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dnswire.edns import Edns, ExtendedDnsError
from repro.dnswire.name import Name
from repro.dnswire.rdata import GenericRdata, Rdata, parse_rdata
from repro.dnswire.types import Opcode, Rcode, RecordClass, RecordType
from repro.dnswire.wire import (_NAME_MEMO, HEADER, QUESTION_FIXED, RR_FIXED,
                                WireReader, WireWriter)
from repro.errors import WireFormatError

#: Value→member maps for the registries decoded on every message parse.
#: ``Enum.__call__`` is two Python calls per coercion; a dict hit is
#: none.  Unknown values fall back to the enum call so the ValueError
#: (→ WireFormatError) behaviour is unchanged.
_RECORD_TYPES: Dict[int, RecordType] = {int(m): m for m in RecordType}
_RECORD_CLASSES: Dict[int, RecordClass] = {int(m): m for m in RecordClass}
_OPCODES: Dict[int, Opcode] = {int(m): m for m in Opcode}
_RCODES: Dict[int, Rcode] = {int(m): m for m in Rcode}
_ANY = RecordType.ANY


class Flags:
    """The header flag bits (QR, AA, TC, RD, RA, AD, CD)."""

    __slots__ = ("qr", "aa", "tc", "rd", "ra", "ad", "cd")

    def __init__(self, qr: bool = False, aa: bool = False, tc: bool = False,
                 rd: bool = True, ra: bool = False, ad: bool = False,
                 cd: bool = False) -> None:
        self.qr = qr
        self.aa = aa
        self.tc = tc
        self.rd = rd
        self.ra = ra
        self.ad = ad
        self.cd = cd

    def to_bits(self) -> int:
        """Pack the flag booleans into their header bit positions."""
        bits = 0
        if self.qr:
            bits |= 0x8000
        if self.aa:
            bits |= 0x0400
        if self.tc:
            bits |= 0x0200
        if self.rd:
            bits |= 0x0100
        if self.ra:
            bits |= 0x0080
        if self.ad:
            bits |= 0x0020
        if self.cd:
            bits |= 0x0010
        return bits

    @classmethod
    def from_bits(cls, bits: int) -> "Flags":
        flags = cls.__new__(cls)
        flags.qr = bits & 0x8000 != 0
        flags.aa = bits & 0x0400 != 0
        flags.tc = bits & 0x0200 != 0
        flags.rd = bits & 0x0100 != 0
        flags.ra = bits & 0x0080 != 0
        flags.ad = bits & 0x0020 != 0
        flags.cd = bits & 0x0010 != 0
        return flags

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flags):
            return NotImplemented
        return self.to_bits() == other.to_bits()

    def __repr__(self) -> str:
        names = [flag for flag in ("qr", "aa", "tc", "rd", "ra", "ad", "cd")
                 if getattr(self, flag)]
        return f"Flags({' '.join(names) or 'none'})"


class Question:
    """A question section entry: name, type, class (``IN`` unless decoded
    from the wire)."""

    __slots__ = ("name", "rtype", "rclass")

    def __init__(self, name: Name, rtype: RecordType) -> None:
        self.name = name
        self.rtype = rtype if type(rtype) is RecordType else RecordType(rtype)
        self.rclass = RecordClass.IN

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        writer.write_name(self.name)
        writer.write_u16(int(self.rtype))
        writer.write_u16(int(self.rclass))

    @classmethod
    def from_wire(cls, reader: WireReader) -> "Question":
        name = reader.read_name()
        rtype, rclass = reader.read_struct(QUESTION_FIXED)
        rtype_enum = _RECORD_TYPES.get(rtype)
        if rtype_enum is None:
            rtype_enum = RecordType(rtype)
        rclass_enum = _RECORD_CLASSES.get(rclass)
        if rclass_enum is None:
            rclass_enum = RecordClass(rclass)
        question = cls.__new__(cls)
        question.name = name
        question.rtype = rtype_enum
        question.rclass = rclass_enum
        return question

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Question):
            return NotImplemented
        return (self.name, self.rtype, self.rclass) == \
               (other.name, other.rtype, other.rclass)

    def __hash__(self) -> int:
        return hash((self.name, self.rtype, self.rclass))

    def __repr__(self) -> str:
        return f"Question({self.name} {self.rclass.name} {self.rtype.name})"


class ResourceRecord:
    """A single resource record with typed rdata."""

    __slots__ = ("name", "rtype", "rclass", "ttl", "rdata")

    def __init__(self, name: Name, rtype: RecordType, ttl: int, rdata: Rdata,
                 rclass: RecordClass = RecordClass.IN) -> None:
        self.name = name
        self.rtype = rtype if type(rtype) is RecordType else RecordType(rtype)
        self.rclass = (rclass if type(rclass) is RecordClass
                       else RecordClass(rclass))
        self.ttl = ttl
        self.rdata = rdata

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy with a different TTL (used when serving from cache)."""
        return ResourceRecord(self.name, self.rtype, ttl, self.rdata, self.rclass)

    @property
    def wire_type(self) -> int:
        """The TYPE number this record carries on the wire.

        A type outside :class:`RecordType` decodes to ``RecordType.ANY``
        with its real number kept on the :class:`GenericRdata`; that
        number, not 255, is what gets written and printed back
        (RFC 3597 transparency).
        """
        if self.rtype is _ANY and isinstance(self.rdata, GenericRdata):
            return self.rdata.generic_rtype or int(_ANY)
        return int(self.rtype)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        writer.write_name(self.name)
        rtype = self.rtype
        # Only an ANY record can carry a foreign type; every other
        # record skips the property call (this runs per encoded record).
        writer.write_u16(self.wire_type if rtype is _ANY else int(rtype))
        writer.write_u16(int(self.rclass))
        writer.write_u32(self.ttl)
        length_at = writer.reserve_u16()
        start = len(writer)
        self.rdata.to_wire(writer)
        writer.patch_u16(length_at, len(writer) - start)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "ResourceRecord":
        name = reader.read_name()
        rtype, rclass, ttl, rdlength = reader.read_struct(RR_FIXED)
        rdata = parse_rdata(rtype, reader, rdlength)
        rtype_enum = _RECORD_TYPES.get(rtype)
        if rtype_enum is None:
            rtype_enum = RecordType.ANY  # generic passthrough keeps true type in rdata
        rclass_enum = _RECORD_CLASSES.get(rclass)
        if rclass_enum is None:
            rclass_enum = RecordClass(rclass)
        record = cls.__new__(cls)
        record.name = name
        record.rtype = rtype_enum
        record.rclass = rclass_enum
        record.ttl = ttl
        record.rdata = rdata
        return record

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        wire_type = self.wire_type
        mnemonic = (self.rtype.name if wire_type == self.rtype
                    else f"TYPE{wire_type}")
        return (f"{self.name.to_text()} {self.ttl} {self.rclass.name} "
                f"{mnemonic} {self.rdata.to_text()}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceRecord):
            return NotImplemented
        return (self.name, self.rtype, self.rclass, self.ttl, self.rdata) == \
               (other.name, other.rtype, other.rclass, other.ttl, other.rdata)

    def __hash__(self) -> int:
        return hash((self.name, self.rtype, self.rclass, self.ttl, self.rdata))

    def __repr__(self) -> str:
        return f"RR({self.to_text()})"


class Message:
    """A complete DNS message with four sections and optional EDNS."""

    def __init__(self, msg_id: int = 0, flags: Optional[Flags] = None,
                 opcode: Opcode = Opcode.QUERY, rcode: Rcode = Rcode.NOERROR) -> None:
        self.msg_id = msg_id
        self.flags = flags if flags is not None else Flags()
        self.opcode = opcode
        self.rcode = rcode
        self.questions: List[Question] = []
        self.answers: List[ResourceRecord] = []
        self.authorities: List[ResourceRecord] = []
        self.additionals: List[ResourceRecord] = []
        self.edns: Optional[Edns] = None

    # -- convenience ------------------------------------------------------------

    @property
    def question(self) -> Question:
        """The sole question; raises if the message has none."""
        if not self.questions:
            raise WireFormatError("message has no question section entry")
        return self.questions[0]

    def answer_addresses(self) -> List[str]:
        """All A/AAAA addresses in the answer section, in order."""
        addresses = []
        for record in self.answers:
            if record.rtype in (RecordType.A, RecordType.AAAA):
                addresses.append(record.rdata.address)  # type: ignore[attr-defined]
        return addresses

    def answer_rrs(self, rtype: RecordType) -> List[ResourceRecord]:
        """Answer-section records of the given type, in order."""
        return [record for record in self.answers if record.rtype == rtype]

    # -- codec --------------------------------------------------------------------

    def to_wire(self) -> bytes:
        """Serialise the full message (with name compression and OPT)."""
        writer = WireWriter()
        writer.write_u16(self.msg_id)
        bits = self.flags.to_bits()
        bits |= (int(self.opcode) & 0xF) << 11
        bits |= int(self.rcode) & 0xF
        writer.write_u16(bits)
        writer.write_u16(len(self.questions))
        writer.write_u16(len(self.answers))
        writer.write_u16(len(self.authorities))
        additional_count = len(self.additionals) + (1 if self.edns else 0)
        writer.write_u16(additional_count)
        for question in self.questions:
            question.to_wire(writer)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record.to_wire(writer)
        if self.edns:
            self._write_opt(writer)
        return writer.getvalue()

    def _write_opt(self, writer: WireWriter) -> None:
        assert self.edns is not None
        writer.write_u8(0)  # root owner name
        writer.write_u16(int(RecordType.OPT))
        writer.write_u16(self.edns.udp_payload)  # CLASS carries payload size
        extended_rcode = (int(self.rcode) >> 4) & 0xFF
        ttl = (extended_rcode << 24) | (self.edns.version << 16)
        if self.edns.dnssec_ok:
            ttl |= 0x8000
        writer.write_u32(ttl)
        options = self.edns.options_to_wire()
        writer.write_u16(len(options))
        writer.write_bytes(options)

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Parse a complete message; raises WireFormatError on any defect.

        Field values outside the known registries (opcode, class, ...)
        are protocol-level garbage for this implementation and surface as
        WireFormatError, so servers answer FORMERR instead of crashing.

        The returned object is a :class:`LazyMessage` view: header,
        question, and EDNS state are decoded here (along with a
        structural validation walk of every record, so malformed wire
        still fails *now*, not on first section access), while the
        answer/authority/additional record objects materialise on first
        access.
        """
        try:
            if cls is Message:
                return LazyMessage(data)
            return cls._from_wire(data)
        except ValueError as error:
            raise WireFormatError(f"unsupported field value: {error}") \
                from error

    @classmethod
    def _from_wire(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        msg = cls()
        msg.msg_id = reader.read_u16()
        bits = reader.read_u16()
        msg.flags = Flags.from_bits(bits)
        msg.opcode = Opcode((bits >> 11) & 0xF)
        rcode_low = bits & 0xF
        qdcount = reader.read_u16()
        ancount = reader.read_u16()
        nscount = reader.read_u16()
        arcount = reader.read_u16()
        for _ in range(qdcount):
            msg.questions.append(Question.from_wire(reader))
        for _ in range(ancount):
            msg.answers.append(ResourceRecord.from_wire(reader))
        for _ in range(nscount):
            msg.authorities.append(ResourceRecord.from_wire(reader))
        rcode_high = 0
        for _ in range(arcount):
            mark = reader.offset
            name = reader.read_name()
            rtype = reader.read_u16()
            if rtype == int(RecordType.OPT):
                if not name.is_root:
                    raise WireFormatError("OPT owner name must be root")
                payload = reader.read_u16()
                ttl = reader.read_u32()
                rdlength = reader.read_u16()
                options = Edns.options_from_wire(reader.read_bytes(rdlength))
                msg.edns = Edns(
                    udp_payload=payload,
                    version=(ttl >> 16) & 0xFF,
                    dnssec_ok=bool(ttl & 0x8000),
                    options=options,
                )
                rcode_high = (ttl >> 24) & 0xFF
            else:
                reader.seek(mark)
                msg.additionals.append(ResourceRecord.from_wire(reader))
        msg.rcode = Rcode((rcode_high << 4) | rcode_low)
        return msg

    def __repr__(self) -> str:
        return (f"Message(id={self.msg_id}, {self.opcode.name}, "
                f"{self.rcode.name}, {self.flags!r}, "
                f"q={len(self.questions)} an={len(self.answers)} "
                f"ns={len(self.authorities)} ar={len(self.additionals)})")

    def to_text(self) -> str:
        """dig-style presentation of the whole message."""
        flag_names = [name for name in ("qr", "aa", "tc", "rd", "ra",
                                        "ad", "cd")
                      if getattr(self.flags, name)]
        lines = [
            f";; ->>HEADER<<- opcode: {self.opcode.name}, "
            f"status: {self.rcode.name}, id: {self.msg_id}",
            f";; flags: {' '.join(flag_names)}; "
            f"QUERY: {len(self.questions)}, ANSWER: {len(self.answers)}, "
            f"AUTHORITY: {len(self.authorities)}, "
            f"ADDITIONAL: {len(self.additionals) + (1 if self.edns else 0)}",
        ]
        if self.edns is not None:
            lines.append(";; OPT PSEUDOSECTION:")
            lines.append(f"; EDNS: version: {self.edns.version}, "
                         f"udp: {self.edns.udp_payload}"
                         + (", flags: do" if self.edns.dnssec_ok else ""))
            ecs = self.edns.client_subnet
            if ecs is not None:
                lines.append(f"; CLIENT-SUBNET: {ecs.address}/"
                             f"{ecs.source_prefix}/{ecs.scope_prefix}")
        if self.questions:
            lines.append(";; QUESTION SECTION:")
            lines.extend(f";{question.name.to_text()}\t\t"
                         f"{question.rclass.name}\t{question.rtype.name}"
                         for question in self.questions)
        for title, section in (("ANSWER", self.answers),
                               ("AUTHORITY", self.authorities),
                               ("ADDITIONAL", self.additionals)):
            if section:
                lines.append(f";; {title} SECTION:")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)


def _scan_rr_sections(reader: WireReader, ancount: int, nscount: int,
                      arcount: int) -> Tuple[Optional[Edns], int]:
    """Structurally walk the RR sections without building record objects.

    Validates what the eager parser validated — truncation, label types,
    rdlength bounds, the root-owner rule for OPT — and fully decodes any
    OPT pseudo-record (EDNS state is header-adjacent: the extended rcode
    lives in its TTL field, so a lazy view still needs it eagerly).
    Each record costs one name skip, one ``RR_FIXED`` unpack and a cursor
    advance past its rdata; nothing is sliced out to be thrown away.
    Returns ``(edns, rcode_high)``; later OPTs win, like the eager loop.

    Deliberately deferred to first section access: compression-pointer
    targets and rdata *content* (those need real decoding).  All wire in
    the simulation comes from our own writer, so deferral only moves
    where an error would surface for hand-corrupted test input.
    """
    edns: Optional[Edns] = None
    rcode_high = 0
    opt_type = int(RecordType.OPT)
    for count, in_additional in ((ancount, False), (nscount, False),
                                 (arcount, True)):
        for _ in range(count):
            owner_at = reader.offset
            owner_is_root = reader.skip_name()
            rtype, rclass, ttl, rdlength = reader.read_struct(RR_FIXED)
            if in_additional and rtype == opt_type:
                if not owner_is_root:
                    # Not the one-octet spelling; a compressed root is
                    # still the root, so decode before refusing.
                    rdata_at = reader.offset
                    reader.seek(owner_at)
                    if not reader.read_name().is_root:
                        raise WireFormatError("OPT owner name must be root")
                    reader.seek(rdata_at)
                options = Edns.options_from_wire(reader.read_bytes(rdlength))
                edns = Edns(
                    udp_payload=rclass,  # CLASS carries payload size
                    version=(ttl >> 16) & 0xFF,
                    dnssec_ok=bool(ttl & 0x8000),
                    options=options,
                )
                rcode_high = (ttl >> 24) & 0xFF
            else:
                reader.skip(rdlength)
    return edns, rcode_high


class LazyMessage(Message):
    """A parse-on-demand :class:`Message` view over retained wire bytes.

    ``Message.from_wire`` returns these.  The header, question section,
    and EDNS state are decoded eagerly (plus a structural validation walk
    over every record — see :func:`_scan_rr_sections` — so defective wire
    is still rejected at parse time); the three RR sections materialise
    on first access.  A server that only looks at the question never pays
    for record or rdata construction.

    While the view is *pristine* — no mutable field has been touched —
    :meth:`to_wire` returns the original bytes without re-encoding.
    Reads count as touches for every mutable field (``flags`` is a
    mutable object, section lists can be appended to), so the fast path
    can never serve stale bytes; ``msg_id``/``opcode``/``rcode`` hold
    immutable values and only their *assignment* invalidates.
    """

    def __init__(self, data: bytes) -> None:
        # Message.__init__ is deliberately not called: every attribute it
        # would set is shadowed by the properties below.
        reader = WireReader(data)
        self._wire = data
        self._pristine = True
        (self._msg_id, bits, qdcount, self._ancount, self._nscount,
         self._arcount) = reader.read_struct(HEADER)
        self._flags = Flags.from_bits(bits)
        opcode = _OPCODES.get((bits >> 11) & 0xF)
        self._opcode = (opcode if opcode is not None
                        else Opcode((bits >> 11) & 0xF))
        self._questions = [Question.from_wire(reader)
                           for _ in range(qdcount)]
        self._sections_at = reader.offset
        edns, rcode_high = _scan_rr_sections(
            reader, self._ancount, self._nscount, self._arcount)
        self._edns = edns
        rcode_value = (rcode_high << 4) | (bits & 0xF)
        rcode = _RCODES.get(rcode_value)
        self._rcode = rcode if rcode is not None else Rcode(rcode_value)
        self._answers: Optional[List[ResourceRecord]] = None
        self._authorities: Optional[List[ResourceRecord]] = None
        self._additionals: Optional[List[ResourceRecord]] = None

    def _explode(self) -> None:
        """Materialise the three RR sections from the retained wire."""
        if self._answers is not None:
            return
        reader = WireReader(self._wire, self._sections_at)
        try:
            answers = [ResourceRecord.from_wire(reader)
                       for _ in range(self._ancount)]
            authorities = [ResourceRecord.from_wire(reader)
                           for _ in range(self._nscount)]
            additionals: List[ResourceRecord] = []
            opt_type = int(RecordType.OPT)
            for _ in range(self._arcount):
                mark = reader.offset
                reader.skip_name()
                rtype, _, _, rdlength = reader.read_struct(RR_FIXED)
                if rtype == opt_type:
                    # Already decoded into self._edns by the eager scan.
                    reader.skip(rdlength)
                else:
                    reader.seek(mark)
                    additionals.append(ResourceRecord.from_wire(reader))
        except ValueError as error:
            raise WireFormatError(f"unsupported field value: {error}") \
                from error
        self._answers = answers
        self._authorities = authorities
        self._additionals = additionals

    def to_wire(self) -> bytes:
        """The retained wire while pristine; re-encode after any touch."""
        if self._pristine:
            return self._wire
        return super().to_wire()

    # -- field properties (shadow Message's plain attributes) -------------------

    @property
    def msg_id(self) -> int:
        return self._msg_id

    @msg_id.setter
    def msg_id(self, value: int) -> None:
        self._pristine = False
        self._msg_id = value

    @property
    def opcode(self) -> Opcode:
        return self._opcode

    @opcode.setter
    def opcode(self, value: Opcode) -> None:
        self._pristine = False
        self._opcode = value

    @property
    def rcode(self) -> Rcode:
        return self._rcode

    @rcode.setter
    def rcode(self, value: Rcode) -> None:
        self._pristine = False
        self._rcode = value

    @property
    def flags(self) -> Flags:
        self._pristine = False  # Flags is mutable; a read may precede a write
        return self._flags

    @flags.setter
    def flags(self, value: Flags) -> None:
        self._pristine = False
        self._flags = value

    @property
    def edns(self) -> Optional[Edns]:
        self._pristine = False
        return self._edns

    @edns.setter
    def edns(self, value: Optional[Edns]) -> None:
        self._pristine = False
        self._edns = value

    @property
    def questions(self) -> List[Question]:
        self._pristine = False
        return self._questions

    @questions.setter
    def questions(self, value: List[Question]) -> None:
        self._pristine = False
        self._questions = value

    @property
    def answers(self) -> List[ResourceRecord]:
        self._explode()
        self._pristine = False
        assert self._answers is not None
        return self._answers

    @answers.setter
    def answers(self, value: List[ResourceRecord]) -> None:
        self._explode()
        self._pristine = False
        self._answers = value

    @property
    def authorities(self) -> List[ResourceRecord]:
        self._explode()
        self._pristine = False
        assert self._authorities is not None
        return self._authorities

    @authorities.setter
    def authorities(self, value: List[ResourceRecord]) -> None:
        self._explode()
        self._pristine = False
        self._authorities = value

    @property
    def additionals(self) -> List[ResourceRecord]:
        self._explode()
        self._pristine = False
        assert self._additionals is not None
        return self._additionals

    @additionals.setter
    def additionals(self, value: List[ResourceRecord]) -> None:
        self._explode()
        self._pristine = False
        self._additionals = value


#: Content-keyed memo behind :func:`cached_wire`.  Values are the encoded
#: message *minus its first two octets* (the id), so repeated queries that
#: differ only by id share one entry.  Bounded; cleared wholesale when
#: full — the memo is pure, so its contents never affect output bytes.
_WIRE_MEMO: Dict[Tuple[object, ...], bytes] = {}
_WIRE_MEMO_MAX = 4096


def clear_wire_memo() -> None:
    """Drop every memoised encode and decoded name (for tests and benchmarks)."""
    _WIRE_MEMO.clear()
    _NAME_MEMO.clear()


def cached_wire(msg: Message) -> bytes:
    """Encode ``msg`` through the shared memo; byte-identical to ``to_wire``.

    The key covers every field the encoder reads — flag bits, opcode,
    rcode (both the header nibble and the OPT extended bits), all four
    sections, and the EDNS snapshot — *except* the message id, which is
    spliced onto the cached tail (the id occupies exactly octets 0-1 and
    never participates in compression offsets).  Hot senders re-encoding
    the same question with fresh ids — stub retries, forwarder cache
    hits — hit one entry.

    Names, records, and options hash on value, so equal content shares
    an entry regardless of object identity; anything unhashable (a
    foreign rdata type) falls back to a direct encode.  Callers must
    treat records as immutable once sent — the dnswire API only mutates
    via copies (``with_ttl``/``with_scope``), and
    ``docs/PERFORMANCE.md`` records the invariant.
    """
    if isinstance(msg, LazyMessage) and msg._pristine:
        return msg._wire  # parsed and untouched: the original bytes stand
    edns = msg.edns
    key: Tuple[object, ...] = (
        msg.flags.to_bits(), int(msg.opcode), int(msg.rcode),
        tuple(msg.questions), tuple(msg.answers), tuple(msg.authorities),
        tuple(msg.additionals),
        edns.cache_key() if edns is not None else None,
    )
    try:
        tail = _WIRE_MEMO.get(key)
    except TypeError:  # unhashable content — just encode
        return msg.to_wire()
    if tail is None:
        tail = msg.to_wire()[2:]
        if len(_WIRE_MEMO) >= _WIRE_MEMO_MAX:
            # repro: allow[RACE001] pure content-keyed memo: a key fully determines its bytes, so hit/miss/eviction never changes any output
            _WIRE_MEMO.clear()
        # repro: allow[RACE001] same memo — insertion is value-deterministic and per-process (workers fork with their own copy)
        _WIRE_MEMO[key] = tail
    return struct.pack("!H", msg.msg_id) + tail


def make_query(name: Name, rtype: RecordType = RecordType.A, msg_id: int = 0,
               recursion_desired: bool = True,
               edns: Optional[Edns] = None) -> Message:
    """Build a standard query message for ``name``/``rtype``."""
    msg = Message(msg_id=msg_id, flags=Flags(rd=recursion_desired))
    msg.questions.append(Question(name, rtype))
    msg.edns = edns
    return msg


def make_response(query: Message, rcode: Rcode = Rcode.NOERROR,
                  authoritative: bool = False,
                  recursion_available: bool = False,
                  answers: Sequence[ResourceRecord] = (),
                  authorities: Sequence[ResourceRecord] = (),
                  additionals: Sequence[ResourceRecord] = ()) -> Message:
    """Build a response echoing ``query``'s id and question."""
    msg = Message(msg_id=query.msg_id, rcode=rcode)
    msg.flags = Flags(qr=True, aa=authoritative, rd=query.flags.rd,
                      ra=recursion_available)
    msg.opcode = query.opcode
    msg.questions = list(query.questions)
    msg.answers = list(answers)
    msg.authorities = list(authorities)
    msg.additionals = list(additionals)
    if query.edns is not None:
        # Mirror the client's EDNS; servers adjust options (e.g. ECS scope).
        msg.edns = Edns(options=list(query.edns.options))
    return msg


def mark_stale(response: Message) -> Message:
    """Stamp ``response`` as a stale answer (RFC 8767 via RFC 8914).

    Adds EDNS state when the response has none, then appends the
    "Stale Answer" extended-error option so clients can tell an
    expired-TTL answer from a fresh one on the wire.
    """
    if response.edns is None:
        response.edns = Edns()
    if response.edns.extended_error is None:
        response.edns.options.append(ExtendedDnsError.stale_answer())
    return response
