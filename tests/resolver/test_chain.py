"""Tests for the CoreDNS-style plugin chain."""


from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord, make_query, make_response
from repro.dnswire.rdata import A
from repro.netsim import Simulator
from repro.netsim.packet import Endpoint
from repro.resolver.chain import Plugin, PluginChain, QueryContext


CLIENT = Endpoint("10.0.0.2", 40000)


def run_chain(chain, qname="svc.cluster.local"):
    sim = Simulator()
    ctx = QueryContext(make_query(Name(qname), msg_id=7), CLIENT)
    future = sim.spawn(chain.run(ctx))
    return sim.run_until_resolved(future), ctx


class AnswerPlugin(Plugin):
    name = "answer"

    def __init__(self, suffix, address):
        self.suffix = Name(suffix)
        self.address = address

    def handle(self, ctx, next_plugin):
        if ctx.qname.is_subdomain_of(self.suffix):
            answer = ResourceRecord(ctx.qname, RecordType.A, 30, A(self.address))
            return make_response(ctx.query, answers=[answer])
            yield  # pragma: no cover - makes this a generator
        response = yield from next_plugin(ctx)
        return response


class TagPlugin(Plugin):
    name = "tag"

    def __init__(self, log):
        self.log = log

    def handle(self, ctx, next_plugin):
        self.log.append("before")
        ctx.metadata["tagged"] = True
        response = yield from next_plugin(ctx)
        self.log.append("after")
        return response


class TestChain:
    def test_first_matching_plugin_answers(self):
        chain = PluginChain([
            AnswerPlugin("cluster.local", "10.96.0.1"),
            AnswerPlugin(".", "203.0.113.1"),
        ])
        response, _ = run_chain(chain, "svc.cluster.local")
        assert response.answer_addresses() == ["10.96.0.1"]

    def test_fallthrough_to_later_plugin(self):
        chain = PluginChain([
            AnswerPlugin("cluster.local", "10.96.0.1"),
            AnswerPlugin(".", "203.0.113.1"),
        ])
        response, _ = run_chain(chain, "www.example.com")
        assert response.answer_addresses() == ["203.0.113.1"]

    def test_empty_chain_refuses(self):
        response, _ = run_chain(PluginChain([]))
        assert response.rcode.name == "REFUSED"

    def test_exhausted_chain_refuses(self):
        chain = PluginChain([AnswerPlugin("cluster.local", "10.96.0.1")])
        response, _ = run_chain(chain, "www.example.com")
        assert response.rcode.name == "REFUSED"

    def test_wrapping_plugin_sees_both_directions(self):
        log = []
        chain = PluginChain([TagPlugin(log),
                             AnswerPlugin(".", "203.0.113.1")])
        response, ctx = run_chain(chain)
        assert log == ["before", "after"]
        assert ctx.metadata["tagged"]
        assert response.answer_addresses() == ["203.0.113.1"]

    def test_response_recorded_on_context(self):
        chain = PluginChain([AnswerPlugin(".", "203.0.113.1")])
        response, ctx = run_chain(chain)
        assert ctx.response is response

    def test_context_accessors(self):
        ctx = QueryContext(make_query(Name("a.b.c"), RecordType.AAAA), CLIENT)
        assert ctx.qname == Name("a.b.c")
        assert ctx.rtype == RecordType.AAAA
