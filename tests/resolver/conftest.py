"""A miniature internet on a simulated network, shared by tests.

Topology (constant latencies in ms):

    client --1-- resolver --5-- auth (example.com, cdn.net)

The resolver is what every L-DNS is: the cache → forward plugin chain.
"""

import pytest

from repro.dnswire import Name, RecordType, ResourceRecord, Zone
from repro.dnswire.rdata import A, CNAME, NS, SOA
from repro.netsim import Constant, Network, RandomStreams, Simulator
from repro.resolver import (AuthoritativeServer, CachePlugin, ChainServer,
                            ForwardPlugin, StubResolver)


def rr(owner, rtype, rdata, ttl=300):
    return ResourceRecord(Name(owner), rtype, ttl, rdata)


def build_example_zone():
    zone = Zone(Name("example.com"))
    zone.add(rr("example.com", RecordType.SOA,
                SOA(Name("ns1.example.com"), Name("admin.example.com"),
                    1, 2, 3, 4, 60)))
    zone.add(rr("example.com", RecordType.NS, NS(Name("ns1.example.com"))))
    zone.add(rr("ns1.example.com", RecordType.A, A("203.0.113.53")))
    zone.add(rr("www.example.com", RecordType.A, A("203.0.113.80"), ttl=600))
    zone.add(rr("alias.example.com", RecordType.CNAME,
                CNAME(Name("www.example.com"))))
    zone.add(rr("external.example.com", RecordType.CNAME,
                CNAME(Name("edge.cdn.net"))))
    return zone


def build_cdn_zone():
    zone = Zone(Name("cdn.net"))
    zone.add(rr("cdn.net", RecordType.SOA,
                SOA(Name("ns.cdn.net"), Name("admin.cdn.net"),
                    1, 2, 3, 4, 60)))
    zone.add(rr("cdn.net", RecordType.NS, NS(Name("ns.cdn.net"))))
    zone.add(rr("ns.cdn.net", RecordType.A, A("203.0.113.53")))
    zone.add(rr("edge.cdn.net", RecordType.A, A("198.18.0.7")))
    return zone


class MiniInternet:
    """The assembled fixture object."""

    def __init__(self, seed=11):
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.net.add_host("client", "10.0.0.2")
        self.net.add_host("resolver", "10.0.0.53")
        self.net.add_host("auth", "203.0.113.53")
        self.net.add_link("client", "resolver", Constant(1))
        self.net.add_link("resolver", "auth", Constant(5))

        self.auth_server = AuthoritativeServer(
            self.net, self.net.host("auth"),
            [build_example_zone(), build_cdn_zone()])
        self.forward = ForwardPlugin(self.auth_server.endpoint)
        self.resolver = ChainServer(self.net, self.net.host("resolver"),
                                    [CachePlugin(), self.forward])
        self.stub = StubResolver(self.net, self.net.host("client"),
                                 self.resolver.endpoint)

    def run_query(self, name, rtype=RecordType.A, **kwargs):
        future = self.sim.spawn(self.stub.query(Name(name), rtype, **kwargs))
        return self.sim.run_until_resolved(future)


@pytest.fixture
def internet():
    return MiniInternet()
