"""Tests for populations, sessions, mobility, and mesoscale caches.

The determinism contract under the ``population`` artifact's digests:
every UE is a pure function of ``(population seed, index)``, its RNG
stream is private, and none of it depends on population size or which
process computes it.
"""

import random
from collections import Counter

import pytest

from repro.workload.caches import RankLru
from repro.workload.mobility import MobilityModel, SessionPlacement
from repro.workload.population import Population, UserProfile
from repro.workload.sessions import SessionModel


def users(population):
    return [population.user(index) for index in range(population.size)]


class TestPopulation:
    def test_ues_are_pure_functions_of_seed_and_index(self):
        small = Population(10, 4, seed=42)
        large = Population(10_000, 4, seed=42)
        for index in range(10):
            assert small.user(index) == large.user(index)

    def test_per_ue_seeds_are_independent(self):
        population = Population(500, 4, seed=42)
        seeds = [population.user(index).seed for index in range(500)]
        assert len(set(seeds)) == 500
        # Distinct seeds must give distinct streams — adjacent UEs
        # sharing a prefix would correlate the whole district.
        first = population.user_rng(population.user(0))
        second = population.user_rng(population.user(1))
        assert [first.random() for _ in range(8)] != \
            [second.random() for _ in range(8)]

    def test_consuming_one_stream_leaves_others_untouched(self):
        population = Population(3, 2, seed=7)
        probe = population.user_rng(population.user(1)).random()
        burner = population.user_rng(population.user(0))
        for _ in range(1_000):
            burner.random()
        assert population.user_rng(population.user(1)).random() == probe

    def test_different_base_seeds_move_everything(self):
        a = Population(50, 4, seed=1)
        b = Population(50, 4, seed=2)
        assert [u.seed for u in users(a)] != [u.seed for u in users(b)]

    def test_home_sites_cover_all_sites(self):
        population = Population(400, 4, seed=42)
        census = Counter(user.home_site for user in users(population))
        assert sorted(census) == [0, 1, 2, 3]
        assert sum(census.values()) == 400

    def test_client_ips_are_stable_and_distinct(self):
        population = Population(300, 2, seed=9)
        ips = [user.client_ip() for user in users(population)]
        assert len(set(ips)) == 300
        assert UserProfile(index=0, home_site=0, seed=0).client_ip() \
            == "10.64.0.0"

    def test_bounds(self):
        population = Population(5, 2, seed=0)
        assert population.size == 5
        with pytest.raises(IndexError):
            population.user(5)
        with pytest.raises(ValueError):
            Population(0, 2, seed=0)
        with pytest.raises(ValueError):
            Population(2, 0, seed=0)


class TestSessionModel:
    def test_request_count_mean_and_floor(self):
        model = SessionModel(mean_requests=8.0, mean_think_s=4.0)
        rng = random.Random(13)
        counts = [model.request_count(rng) for _ in range(20_000)]
        assert min(counts) >= 1
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(8.0, rel=0.05)

    def test_think_time_mean(self):
        model = SessionModel(mean_requests=8.0, mean_think_s=4.0)
        rng = random.Random(17)
        draws = [model.think_time(rng) for _ in range(20_000)]
        assert all(draw >= 0 for draw in draws)
        assert sum(draws) / len(draws) == pytest.approx(4.0, rel=0.05)

    def test_degenerate_mean_pins_the_floor(self):
        model = SessionModel(mean_requests=1.0, min_requests=1,
                             mean_think_s=1.0)
        rng = random.Random(3)
        assert all(model.request_count(rng) == 1 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionModel(mean_requests=0.5)
        with pytest.raises(ValueError):
            SessionModel(mean_think_s=0.0)
        with pytest.raises(ValueError):
            SessionModel(min_requests=0)


class TestMobilityModel:
    def test_single_site_consumes_no_rng(self):
        model = MobilityModel(1, move_probability=1.0,
                              handover_probability=1.0)
        rng = random.Random(5)
        probe = random.Random(5).random()
        placement = model.place_session(rng, 0, requests=10)
        assert placement == SessionPlacement(site=0, handover_site=0,
                                             handover_at=-1)
        assert rng.random() == probe

    def test_other_site_never_returns_current(self):
        model = MobilityModel(4, move_probability=1.0,
                              handover_probability=0.0)
        rng = random.Random(21)
        for _ in range(200):
            placement = model.place_session(rng, 2, requests=5)
            assert placement.site != 2
            assert 0 <= placement.site < 4

    def test_move_probability_is_respected(self):
        model = MobilityModel(4, move_probability=0.25,
                              handover_probability=0.0)
        rng = random.Random(8)
        away = sum(model.place_session(rng, 1, 5).site != 1
                   for _ in range(20_000))
        assert away / 20_000 == pytest.approx(0.25, abs=0.02)

    def test_handover_lands_mid_session(self):
        model = MobilityModel(3, move_probability=0.0,
                              handover_probability=1.0)
        rng = random.Random(2)
        for _ in range(200):
            placement = model.place_session(rng, 0, requests=6)
            assert 1 <= placement.handover_at < 6
            assert placement.handover_site != placement.site

    def test_single_request_sessions_never_hand_over(self):
        model = MobilityModel(3, move_probability=0.0,
                              handover_probability=1.0)
        rng = random.Random(4)
        placement = model.place_session(rng, 0, requests=1)
        assert placement.handover_at == -1
        assert placement.handover_site == placement.site

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityModel(0)
        with pytest.raises(ValueError):
            MobilityModel(2, move_probability=1.5)
        with pytest.raises(ValueError):
            MobilityModel(2, handover_probability=-0.1)


class TestRankLru:
    def test_hit_miss_and_eviction(self):
        cache = RankLru(2)
        assert not cache.lookup(1)   # miss, admit
        assert not cache.lookup(2)   # miss, admit
        assert cache.lookup(1)       # hit, refreshes 1
        assert not cache.lookup(3)   # miss, evicts 2 (LRU)
        assert not cache.lookup(2)   # 2 was evicted
        assert cache.hits == 1
        assert cache.misses == 4
        assert len(cache._entries) == 2

    def test_recency_refresh_protects_hot_ranks(self):
        cache = RankLru(2)
        cache.lookup(1)
        cache.lookup(2)
        cache.lookup(1)              # 1 is now most recent
        cache.lookup(3)              # evicts 2, not 1
        assert cache.lookup(1)
        assert not cache.lookup(2)

    def test_hit_rate(self):
        cache = RankLru(10)
        cache.lookup(1)
        cache.lookup(1)
        assert cache.hits / (cache.hits + cache.misses) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RankLru(0)
