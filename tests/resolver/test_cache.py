"""Tests for the DNS cache."""

import pytest
from hypothesis import given, strategies as st

from repro.dnswire import Name, RecordType, ResourceRecord
from repro.dnswire.rdata import A
from repro.resolver.cache import CacheOutcome, DnsCache, MAX_TTL

MISS = CacheOutcome.MISS


def rr(owner, address, ttl=300):
    return ResourceRecord(Name(owner), RecordType.A, ttl, A(address))


class TestPositive:
    def test_miss_then_hit(self):
        cache = DnsCache()
        assert cache.get(Name("a.com"), RecordType.A, 0).outcome == MISS
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        answer = cache.get(Name("a.com"), RecordType.A, 1000)
        assert answer.outcome == CacheOutcome.HIT
        assert answer.records[0].rdata.address == "192.0.2.1"

    def test_ttl_decremented(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1", ttl=100)], now=0)
        answer = cache.get(Name("a.com"), RecordType.A, 40_000)  # 40s later
        assert answer.records[0].ttl == 60

    def test_expiry(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1", ttl=10)], now=0)
        assert cache.get(Name("a.com"), RecordType.A, 10_000).outcome == MISS

    def test_rrset_grouping(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1"), rr("a.com", "192.0.2.2"),
                           rr("b.com", "192.0.2.3")], now=0)
        assert len(cache.get(Name("a.com"), RecordType.A, 0).records) == 2

    def test_type_separation(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        assert cache.get(Name("a.com"), RecordType.AAAA, 0).outcome == MISS

    def test_case_insensitive_keying(self):
        cache = DnsCache()
        cache.put_records([rr("A.CoM", "192.0.2.1")], now=0)
        assert cache.get(Name("a.com"), RecordType.A, 0).outcome == \
            CacheOutcome.HIT

    def test_ttl_clamped(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1", ttl=10**7)], now=0)
        answer = cache.get(Name("a.com"), RecordType.A, 0)
        assert answer.records[0].ttl <= MAX_TTL

    def test_replacement_updates_rrset(self):
        cache = DnsCache()
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        cache.put_records([rr("a.com", "192.0.2.9")], now=0)
        answer = cache.get(Name("a.com"), RecordType.A, 0)
        assert [r.rdata.address for r in answer.records] == ["192.0.2.9"]

    def test_opt_records_not_cached(self):
        from repro.dnswire.rdata import GenericRdata
        cache = DnsCache()
        opt = ResourceRecord(Name("."), RecordType.OPT, 0, GenericRdata(b""))
        cache.put_records([opt], now=0)
        assert len(cache) == 0

    def test_peek_addresses(self):
        cache = DnsCache()
        cache.put_records([rr("ns.com", "192.0.2.53")], now=0)
        assert cache.peek_addresses(Name("ns.com"), 0) == ["192.0.2.53"]
        assert cache.peek_addresses(Name("other.com"), 0) == []
        assert cache.misses == 0  # peek does not count stats


class TestNegative:
    def test_nxdomain_cached(self):
        cache = DnsCache()
        cache.put_negative(Name("no.com"), RecordType.A,
                           CacheOutcome.NEGATIVE_NXDOMAIN, ttl=60, now=0)
        answer = cache.get(Name("no.com"), RecordType.A, 1000)
        assert answer.outcome == CacheOutcome.NEGATIVE_NXDOMAIN

    def test_nodata_cached(self):
        cache = DnsCache()
        cache.put_negative(Name("a.com"), RecordType.AAAA,
                           CacheOutcome.NEGATIVE_NODATA, ttl=60, now=0)
        assert cache.get(Name("a.com"), RecordType.AAAA, 0).outcome == \
            CacheOutcome.NEGATIVE_NODATA

    def test_negative_expiry(self):
        cache = DnsCache()
        cache.put_negative(Name("no.com"), RecordType.A,
                           CacheOutcome.NEGATIVE_NXDOMAIN, ttl=5, now=0)
        assert cache.get(Name("no.com"), RecordType.A, 6000).outcome == MISS

    def test_nxdomain_covers_all_types(self):
        cache = DnsCache()
        cache.put_negative(Name("no.com"), RecordType.A,
                           CacheOutcome.NEGATIVE_NXDOMAIN, ttl=60, now=0)
        assert cache.get(Name("no.com"), RecordType.AAAA, 0).outcome == \
            CacheOutcome.NEGATIVE_NXDOMAIN

    def test_positive_insert_clears_negative(self):
        cache = DnsCache()
        cache.put_negative(Name("a.com"), RecordType.A,
                           CacheOutcome.NEGATIVE_NXDOMAIN, ttl=60, now=0)
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        assert cache.get(Name("a.com"), RecordType.A, 0).outcome == \
            CacheOutcome.HIT

    def test_non_negative_outcome_rejected(self):
        cache = DnsCache()
        with pytest.raises(ValueError):
            cache.put_negative(Name("a.com"), RecordType.A,
                               CacheOutcome.HIT, ttl=60, now=0)


class TestCapacity:
    def test_lru_eviction(self):
        cache = DnsCache(max_entries=3)
        for index in range(5):
            cache.put_records([rr(f"h{index}.com", "192.0.2.1")], now=0)
        assert len(cache) == 3
        assert cache.get(Name("h0.com"), RecordType.A, 0).outcome == MISS
        assert cache.get(Name("h4.com"), RecordType.A, 0).outcome == \
            CacheOutcome.HIT

    def test_access_refreshes_lru_position(self):
        cache = DnsCache(max_entries=2)
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        cache.put_records([rr("b.com", "192.0.2.2")], now=0)
        cache.get(Name("a.com"), RecordType.A, 0)  # refresh a.com
        cache.put_records([rr("c.com", "192.0.2.3")], now=0)
        assert cache.get(Name("a.com"), RecordType.A, 0).outcome == \
            CacheOutcome.HIT
        assert cache.get(Name("b.com"), RecordType.A, 0).outcome == MISS

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DnsCache(max_entries=0)


class TestStats:
    def test_hit_miss_counters(self):
        cache = DnsCache()
        cache.get(Name("a.com"), RecordType.A, 0)
        cache.put_records([rr("a.com", "192.0.2.1")], now=0)
        cache.get(Name("a.com"), RecordType.A, 0)
        assert cache.misses == 1
        assert cache.hits == 1


@given(st.integers(min_value=1, max_value=3600),
       st.floats(min_value=0, max_value=10_000_000))
def test_entry_valid_exactly_until_ttl(ttl, probe_ms):
    cache = DnsCache()
    cache.put_records([rr("p.com", "192.0.2.1", ttl=ttl)], now=0)
    answer = cache.get(Name("p.com"), RecordType.A, probe_ms)
    if probe_ms < ttl * 1000:
        assert answer.outcome == CacheOutcome.HIT
        assert 0 <= answer.records[0].ttl <= ttl
    else:
        assert answer.outcome == MISS
