"""Typed DNS record data.

Each record type the reproduction uses has a dataclass-like Rdata subclass
with wire and presentation codecs.  Unknown types round-trip through
:class:`GenericRdata` so a resolver can forward records it does not
understand, as real resolvers must.

IPv4/IPv6 addresses are carried as strings in canonical presentation form;
:mod:`ipaddress` does the validation.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, Tuple, Type

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.wire import WireReader, WireWriter
from repro.errors import WireFormatError

_REGISTRY: Dict[int, Type["Rdata"]] = {}


def _register(rtype: RecordType) -> Callable[[Type["Rdata"]], Type["Rdata"]]:
    def decorator(cls: Type["Rdata"]) -> Type["Rdata"]:
        cls.rtype = rtype
        _REGISTRY[int(rtype)] = cls
        return cls
    return decorator


class Rdata:
    """Base class for record data.

    Subclasses define ``rtype`` and implement :meth:`to_wire`,
    :meth:`from_wire` and :meth:`to_text`.
    Instances are immutable by convention and compare by value.
    """

    rtype: RecordType

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        raise NotImplementedError

    # value semantics -------------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


def rdata_class_for(rtype: int) -> Type[Rdata]:
    """The Rdata subclass registered for ``rtype``, or GenericRdata."""
    return _REGISTRY.get(int(rtype), GenericRdata)


def parse_rdata(rtype: int, reader: WireReader, rdlength: int) -> Rdata:
    """Decode rdata of the given type from the wire."""
    end = reader.offset + rdlength
    rdata = rdata_class_for(rtype).from_wire(reader, rdlength)
    if reader.offset != end:
        raise WireFormatError(
            f"rdata for type {rtype} consumed {reader.offset - (end - rdlength)} "
            f"of {rdlength} octets"
        )
    if isinstance(rdata, GenericRdata):
        rdata.generic_rtype = int(rtype)
    return rdata


@_register(RecordType.A)
class A(Rdata):
    """IPv4 address record."""

    __slots__ = ("address",)

    def __init__(self, address: str) -> None:
        self.address = str(ipaddress.IPv4Address(address))

    def _key(self) -> tuple:
        return (self.address,)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        writer.write_bytes(ipaddress.IPv4Address(self.address).packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "A":
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 octets, got {rdlength}")
        # Packed octets stringify to the canonical dotted quad already,
        # so the __init__ re-parse (octet splitting and validation all
        # over again) is skipped on the decode path.
        record = cls.__new__(cls)
        record.address = str(ipaddress.IPv4Address(reader.read_bytes(4)))
        return record

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        return self.address


class _SingleName(Rdata):
    """Common shape for rdata that is exactly one domain name."""

    __slots__ = ("target",)

    def __init__(self, target: Name) -> None:
        self.target = target

    def _key(self) -> tuple:
        return (self.target,)

    def to_wire(self, writer: WireWriter) -> None:
        # Names inside rdata are written uncompressed: RFC 3597 forbids
        # compression for new types and modern servers avoid it generally,
        # because the rdlength would depend on message layout.
        writer.write_name(self.target, compress=False)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "_SingleName":
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@_register(RecordType.CNAME)
class CNAME(_SingleName):
    """Canonical-name alias record — the CDN indirection workhorse."""


@_register(RecordType.NS)
class NS(_SingleName):
    """Delegation to an authoritative name server."""


@_register(RecordType.PTR)
class PTR(_SingleName):
    """Reverse-mapping pointer record."""


@_register(RecordType.TXT)
class TXT(Rdata):
    """Text record: one or more character strings of up to 255 octets."""

    __slots__ = ("strings",)

    def __init__(self, strings: Tuple[bytes, ...]) -> None:
        for chunk in strings:
            if len(chunk) > 255:
                raise WireFormatError("TXT character-string exceeds 255 octets")
        self.strings = tuple(strings)

    @classmethod
    def from_string(cls, text: str) -> "TXT":
        """Build from a single Python string, splitting at 255 octets."""
        raw = text.encode("utf-8")
        chunks = tuple(raw[i:i + 255] for i in range(0, len(raw), 255)) or (b"",)
        return cls(chunks)

    def _key(self) -> tuple:
        return (self.strings,)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        for chunk in self.strings:
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TXT":
        end = reader.offset + rdlength
        strings = []
        while reader.offset < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        return cls(tuple(strings))

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        return " ".join(
            '"' + chunk.decode("utf-8", "backslashreplace") + '"'
            for chunk in self.strings
        )


@_register(RecordType.SOA)
class SOA(Rdata):
    """Start-of-authority record."""

    __slots__ = ("mname", "rname", "serial", "refresh", "retry", "expire", "minimum")

    def __init__(self, mname: Name, rname: Name, serial: int, refresh: int,
                 retry: int, expire: int, minimum: int) -> None:
        self.mname = mname
        self.rname = rname
        self.serial = serial
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def _key(self) -> tuple:
        return (self.mname, self.rname, self.serial, self.refresh,
                self.retry, self.expire, self.minimum)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        writer.write_name(self.mname, compress=False)
        writer.write_name(self.rname, compress=False)
        for field in (self.serial, self.refresh, self.retry, self.expire, self.minimum):
            writer.write_u32(field)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SOA":
        mname = reader.read_name()
        rname = reader.read_name()
        values = [reader.read_u32() for _ in range(5)]
        return cls(mname, rname, *values)

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        return (f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
                f"{self.refresh} {self.retry} {self.expire} {self.minimum}")


class GenericRdata(Rdata):
    """Opaque rdata for unknown types (RFC 3597 style)."""

    __slots__ = ("data", "generic_rtype")

    rtype = RecordType.ANY  # placeholder; the real type rides alongside

    def __init__(self, data: bytes, generic_rtype: int = 0) -> None:
        self.data = data
        self.generic_rtype = generic_rtype

    def _key(self) -> tuple:
        return (self.data, self.generic_rtype)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialise to wire format."""
        writer.write_bytes(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "GenericRdata":
        return cls(reader.read_bytes(rdlength))

    def to_text(self) -> str:
        """Render in presentation (zone-file) format."""
        return f"\\# {len(self.data)} {self.data.hex()}"

