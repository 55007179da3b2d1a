"""Registries of DNS record types, classes, opcodes, and response codes.

Only the values exercised by the reproduction are enumerated; unknown values
survive round-trips through the codec as plain integers (see
:class:`repro.dnswire.rdata.GenericRdata`).
"""

from __future__ import annotations

import enum


class RecordType(enum.IntEnum):
    """DNS RR TYPE values (RFC 1035 §3.2.2 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    IXFR = 251
    AXFR = 252
    ANY = 255


class RecordClass(enum.IntEnum):
    """DNS CLASS values (RFC 1035 §3.2.4)."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255


class Opcode(enum.IntEnum):
    """DNS OPCODE values."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """DNS RCODE values (RFC 1035 §4.1.1, RFC 2136, RFC 6891)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10
    BADVERS = 16


#: Conventional maximum payload for plain (non-EDNS) UDP DNS.
CLASSIC_UDP_PAYLOAD = 512

#: Default advertised EDNS0 UDP payload size used by this library.
DEFAULT_EDNS_PAYLOAD = 1232
