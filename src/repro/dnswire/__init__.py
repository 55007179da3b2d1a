"""DNS wire protocol implementation (RFC 1035 subset + EDNS0/ECS).

This package implements the parts of the DNS protocol that the MEC-CDN
reproduction exercises end to end:

* :mod:`repro.dnswire.name` — domain names with the RFC 1035 label rules.
* :mod:`repro.dnswire.types` — record type / class / opcode / rcode registries.
* :mod:`repro.dnswire.wire` — wire buffers with name compression.
* :mod:`repro.dnswire.rdata` — typed record data (A, CNAME, NS, SOA, PTR,
  TXT, and a generic fallback).
* :mod:`repro.dnswire.edns` — EDNS0 OPT pseudo-records and the Client Subnet
  option (RFC 7871), which the paper evaluates in §4.
* :mod:`repro.dnswire.message` — full query/response message codec.
* :mod:`repro.dnswire.zone` — zone data with lookup semantics.

Messages produced by the simulated servers are always round-tripped through
the wire codec, so the protocol layer is exercised on every simulated query.
"""

from repro.dnswire.name import Name, ROOT
from repro.dnswire.types import RecordType, RecordClass, Opcode, Rcode
from repro.dnswire.message import (
    Flags,
    Question,
    ResourceRecord,
    Message,
    LazyMessage,
    cached_wire,
    clear_wire_memo,
    make_query,
    make_response,
    mark_stale,
)
from repro.dnswire.rdata import (
    Rdata,
    A,
    CNAME,
    NS,
    PTR,
    TXT,
    SOA,
    GenericRdata,
)
from repro.dnswire.edns import (ClientSubnet, EdnsOptionCode, Edns,
                                ExtendedDnsError)
from repro.dnswire.zone import Zone, LookupResult, LookupStatus

__all__ = [
    "Name",
    "ROOT",
    "RecordType",
    "RecordClass",
    "Opcode",
    "Rcode",
    "Flags",
    "Question",
    "ResourceRecord",
    "Message",
    "LazyMessage",
    "cached_wire",
    "clear_wire_memo",
    "make_query",
    "make_response",
    "mark_stale",
    "Rdata",
    "A",
    "CNAME",
    "NS",
    "PTR",
    "TXT",
    "SOA",
    "GenericRdata",
    "ClientSubnet",
    "EdnsOptionCode",
    "Edns",
    "ExtendedDnsError",
    "Zone",
    "LookupResult",
    "LookupStatus",
]
