"""Tests for deterministic sampling and the tail-exemplar reservoir."""

import pytest

from repro.telemetry.sampling import (
    Exemplar,
    HeadSampler,
    TailReservoir,
    hash_unit,
    hash_unit_u64,
)


def make_exemplar(key, total_ms, t_ms=0.0):
    return Exemplar(key=key, total_ms=total_ms, t_ms=t_ms,
                    stages=(("dns", total_ms * 0.4),
                            ("fetch", total_ms * 0.6)),
                    attrs=(("deployment", "mec-ldns-mec-cdns"),))


class TestHashUnit:
    def test_deterministic(self):
        assert hash_unit("ue-7/s3") == hash_unit("ue-7/s3")
        assert hash_unit_u64(123456) == hash_unit_u64(123456)

    def test_unit_interval(self):
        for key in ("a", "b", "population/d0/u1"):
            assert 0.0 <= hash_unit(key) < 1.0
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0.0 <= hash_unit_u64(value) < 1.0

    def test_spreads(self):
        values = {hash_unit_u64(i) for i in range(1000)}
        assert len(values) == 1000


class TestHeadSampler:
    def test_rate_one_keeps_everything(self):
        sampler = HeadSampler(1.0)
        assert all(sampler.keep_id(i) for i in range(50))

    def test_rate_zero_drops_everything(self):
        sampler = HeadSampler(0.0)
        assert not any(sampler.keep_id(i) for i in range(50))

    def test_fractional_rate_is_deterministic_and_close(self):
        sampler = HeadSampler(0.2)
        kept = [sampler.keep_id(i) for i in range(5000)]
        assert kept == [HeadSampler(0.2).keep_id(i) for i in range(5000)]
        assert 0.15 < sum(kept) / len(kept) < 0.25


class TestExemplar:
    def test_round_trip(self):
        exemplar = make_exemplar("d0/u3/s1/q2", 123.5, t_ms=4000.0)
        again = Exemplar.from_dict(exemplar.to_dict())
        assert again == exemplar

    def test_sort_key_is_a_strict_total_order(self):
        a = make_exemplar("a", 10.0)
        b = make_exemplar("b", 10.0)
        assert a.sort_key() != b.sort_key()
        assert sorted([b, a], key=Exemplar.sort_key) == [a, b]


class TestTailReservoir:
    def test_keeps_exactly_the_slowest(self):
        reservoir = TailReservoir(5)
        # Offer in a scrambled order; top-5 must be exact regardless.
        for total in [7, 1, 9, 3, 12, 5, 11, 2, 8, 4, 10, 6]:
            reservoir.offer(make_exemplar(f"q{total}", float(total)))
        assert [e.total_ms for e in reservoir.items()] == \
            [12.0, 11.0, 10.0, 9.0, 8.0]
        assert reservoir.offered == 12

    def test_merge_order_independent(self):
        everything = [make_exemplar(f"q{i}", float((i * 37) % 101))
                      for i in range(60)]
        one = TailReservoir(8)
        for exemplar in everything:
            one.offer(exemplar)
        shards = [TailReservoir(8) for _ in range(3)]
        for index, exemplar in enumerate(everything):
            shards[index % 3].offer(exemplar)
        merged = TailReservoir(8)
        for shard in reversed(shards):
            merged.merge(shard)
        assert merged.items() == one.items()

    def test_threshold_rejects_fast_queries(self):
        reservoir = TailReservoir(4)
        for total in range(100, 108):
            reservoir.offer(make_exemplar(f"q{total}", float(total)))
        reservoir.items()   # force a compaction
        assert reservoir.threshold_ms is not None
        # Anything strictly below the threshold cannot change the top-K.
        reservoir.offer(make_exemplar("fast", reservoir.threshold_ms - 1))
        assert [e.total_ms for e in reservoir.items()] == \
            [107.0, 106.0, 105.0, 104.0]

    def test_capacity_zero_counts_but_keeps_nothing(self):
        reservoir = TailReservoir(0)
        reservoir.offer(make_exemplar("q", 5.0))
        assert len(reservoir) == 0
        assert reservoir.offered == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TailReservoir(-1)

