"""A sent query reads the same as its decoded wire, so the server skips the decode.

``resolver.exchange`` attaches the sender's :class:`Message` to the
datagram and ``DnsServer`` serves that object instead of parsing the
bytes.  That is exact only if every field a handler reads is equal on
the sender's object and on ``Message.from_wire(cached_wire(query))``, for
every query shape the stack sends: ``make_query`` with and without EDNS,
with ECS (as the CoreDNS injection and a forwarder relay it), and the
IXFR query that carries the client's SOA in its authority section.
"""

from hypothesis import given, strategies as st

from repro.dnswire.rdata import SOA
from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import (Message, ResourceRecord, cached_wire,
                                   make_query)
from repro.dnswire.types import RecordType
from tests.dnswire.test_differential import (_FLAG_NAMES, _ipv4, _names,
                                             _u16, _u32)


def _handler_fields(query):
    """Everything a server handler or the reply path reads off a query."""
    edns = query.edns
    records = query.authorities + query.additionals
    return {
        "msg_id": query.msg_id,
        "flags": [getattr(query.flags, flag) for flag in _FLAG_NAMES],
        "opcode": query.opcode,
        "rcode": query.rcode,
        "questions": query.questions,
        "edns_payload": None if edns is None else edns.udp_payload,
        "edns_version": None if edns is None else edns.version,
        "dnssec_ok": None if edns is None else edns.dnssec_ok,
        "options": None if edns is None else edns.options,
        "client_subnet": None if edns is None else edns.client_subnet,
        "answers": query.answers,
        "authorities": query.authorities,
        "additionals": query.additionals,
        # Name equality folds case; spellings must agree octet for octet.
        "spellings": [question.name.labels for question in query.questions]
                     + [record.name.labels for record in records],
    }


_ecs = st.tuples(_ipv4, st.integers(0, 32)).map(
    lambda ecs: ClientSubnet(*ecs))
_soa = st.tuples(_names, st.integers(0, 0x7FFFFFFF),
                 st.tuples(_names, _names, _u32, _u32, _u32, _u32, _u32)).map(
    lambda soa: ResourceRecord(soa[0], RecordType.SOA, soa[1], SOA(*soa[2])))


@st.composite
def _sent_queries(draw):
    """One query as the stub, forwarder, CoreDNS or load generator builds it."""
    shape = draw(st.sampled_from(["plain", "edns", "ecs", "ixfr"]))
    name = draw(_names)
    msg_id = draw(_u16)
    if shape == "ixfr":
        # resolver.xfr: a stub query whose authority holds the current SOA.
        query = make_query(name, RecordType.IXFR, msg_id=msg_id)
        query.authorities = [draw(_soa)]
        return query
    edns = None
    if shape == "edns":
        edns = Edns(udp_payload=draw(st.integers(512, 4096)),
                    dnssec_ok=draw(st.booleans()))
    elif shape == "ecs":
        # No payload given is the CoreDNS injection's spelling.
        payload = draw(st.one_of(st.none(), st.integers(512, 4096)))
        edns = (Edns(options=[draw(_ecs)]) if payload is None
                else Edns(udp_payload=payload, options=[draw(_ecs)]))
    return make_query(name, draw(st.sampled_from(list(RecordType))),
                      msg_id=msg_id, recursion_desired=draw(st.booleans()),
                      edns=edns)


@given(_sent_queries())
def test_sent_query_reads_as_its_decode(query):
    decoded = Message.from_wire(cached_wire(query))
    assert _handler_fields(query) == _handler_fields(decoded)

