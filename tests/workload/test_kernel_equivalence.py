"""The population kernel against its slow, obvious version.

``run_district`` remembers cache selections, draws latency legs without
going through ``LatencyModel.sample``, and binds everything a query
touches outside the loop.  None of that may change a single draw: the
reference below is the loop written the obvious way — one ring pick, one
``dns_legs`` call, one ``leg.sample`` and two ``hist.add`` per query,
nothing remembered — and the production engine must agree with it field
for field.  The reference also states every query as the record tuple
the kernel hands its observer, so the two are compared query for query
as well as in aggregate.
"""

import random
import tracemalloc
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro import telemetry as telemetry_mod
from repro.workload import engine
from repro.cdn.allocation import ConsistentAllocator, HashRing
from repro.cdn.content import ZipfRankStream
from repro.measure.histogram import LatencyHistogram
from repro.telemetry import Telemetry, TelemetryConfig
from repro.workload.arrivals import DiurnalProfile, NhppArrivals
from repro.workload.caches import RankLru
from repro.workload.deployment import (INTER_SITE_LEG, INTRA_SITE_LEG,
                                       ORIGIN_LEG, ORIGIN_SERVICE_MS,
                                       DeploymentModel, calibrate)
from repro.workload.engine import (HEAD, DistrictConfig, DistrictStats,
                                   _Router, run_district)
from repro.workload.mobility import HANDOVER_INTERRUPTION_MS, MobilityModel
from repro.workload.observer import QueryRecord
from repro.workload.population import Population
from repro.workload.sessions import SessionModel

BASE = DistrictConfig(
    ues=40, sites=4, caches_per_site=2, cache_capacity=30,
    catalog_size=2_000, zipf_exponent=0.9, duration_s=3600.0,
    sessions_per_ue_hour=2.0, mean_requests=6.0, mean_think_s=4.0,
    move_probability=0.3, handover_probability=0.3,
    allocation="content", start_s=18 * 3600.0)

SAMPLED = TelemetryConfig(trace_sample=0.05, window_ms=60000.0,
                          tail_capacity=16)

#: One session as the kernel hands it over:
#: ``(ue, session ordinal, home site, records)``.
Session = Tuple[int, int, int, List[QueryRecord]]


class ReferenceRouter:
    """Cache selection with nothing remembered: every request hashes."""

    def __init__(self, config: DistrictConfig) -> None:
        self.allocation = config.allocation
        names = [[f"site{site}-cache{cache}"
                  for cache in range(config.caches_per_site)]
                 for site in range(config.sites)]
        self.index: Dict[str, int] = {}
        for site, row in enumerate(names):
            for cache, name in enumerate(row):
                self.index[name] = site * config.caches_per_site + cache
        self.rings = [HashRing(row, name_of=str) for row in names]
        self.allocators: Optional[List[ConsistentAllocator]] = None
        if config.allocation == "client-bounded":
            self.allocators = [ConsistentAllocator(row) for row in names]

    def select(self, site: int, content_key: str, client_key: str) -> int:
        chosen: Optional[object]
        if self.allocators is not None:
            chosen = self.allocators[site].assign(client_key)
        elif self.allocation == "client":
            chosen = self.rings[site].pick(client_key)
        else:
            chosen = self.rings[site].pick(content_key)
        assert chosen is not None
        return self.index[str(chosen)]


def dns_legs(model: DeploymentModel,
             rng: random.Random) -> Tuple[float, float]:
    """One lookup's ``(wireless, resolver)`` legs: two draws, wireless
    first, through ``Empirical.sample`` — the kernel makes the same two
    from ``wireless.samples`` / ``resolver.samples`` directly."""
    return model.wireless.sample(rng), model.resolver.sample(rng)


def reference_run_district(config: DistrictConfig, model: DeploymentModel,
                           seed: int) -> Tuple[DistrictStats, List[Session]]:
    """``run_district`` without a memo, a bound name or an in-lined draw,
    and every session's query records beside the aggregates."""
    population = Population(config.ues, config.sites, seed)
    arrivals = NhppArrivals(config.sessions_per_ue_hour / 3600.0,
                            DiurnalProfile())
    session_model = SessionModel(mean_requests=config.mean_requests,
                                 mean_think_s=config.mean_think_s)
    mobility = MobilityModel(config.sites,
                             move_probability=config.move_probability,
                             handover_probability=config.handover_probability)
    router = ReferenceRouter(config)
    caches = [RankLru(config.cache_capacity)
              for _ in range(config.sites * config.caches_per_site)]
    cache_load = [0] * len(caches)
    dns_hist = LatencyHistogram()
    total_hist = LatencyHistogram()
    queries = sessions = active = hits = localized = handovers = 0
    handed_over: List[Session] = []
    for index in range(config.ues):
        ue = population.user(index)
        rng = population.user_rng(ue)
        zipf = ZipfRankStream(config.catalog_size, rng,
                              exponent=config.zipf_exponent)
        client_key = ue.client_ip()
        ue_sessions = 0
        for start in arrivals.times(rng, config.duration_s,
                                    start_s=config.start_s):
            requests = session_model.request_count(rng)
            placement = mobility.place_session(rng, ue.home_site, requests)
            site = placement.site
            ue_sessions += 1
            records: List[QueryRecord] = []
            for ordinal in range(requests):
                interruption = 0.0
                if ordinal == placement.handover_at:
                    site = placement.handover_site
                    handovers += 1
                    interruption = HANDOVER_INTERRUPTION_MS
                rank = zipf.next_rank()
                content_key = f"obj{rank:07d}.pop.mycdn.ciab.test"
                if model.localized:
                    cache_index = router.select(site, content_key, client_key)
                else:
                    cache_index = 0
                served_site = cache_index // config.caches_per_site
                hit = caches[cache_index].lookup(rank)
                cache_load[cache_index] += 1
                wireless_ms, resolver_ms = dns_legs(model, rng)
                dns_ms = wireless_ms + resolver_ms + interruption
                fetch_leg = (INTRA_SITE_LEG if served_site == site
                             else INTER_SITE_LEG)
                fetch_ms = 2.0 * fetch_leg.sample(rng)
                latency = dns_ms + fetch_ms
                origin_ms = 0.0
                if hit:
                    hits += 1
                else:
                    origin_ms = 2.0 * ORIGIN_LEG.sample(rng) + ORIGIN_SERVICE_MS
                    latency += origin_ms
                if served_site == site:
                    localized += 1
                queries += 1
                dns_hist.add(dns_ms)
                total_hist.add(latency)
                records.append((start, site, served_site, hit, dns_ms,
                                latency, wireless_ms, resolver_ms,
                                interruption, fetch_ms, origin_ms))
                start += session_model.think_time(rng)
            handed_over.append((index, ue_sessions, ue.home_site, records))
        if ue_sessions:
            active += 1
            sessions += ue_sessions
    return DistrictStats(
        queries=queries, sessions=sessions, active_ues=active, hits=hits,
        localized=localized, handovers=handovers, cache_load=cache_load,
        dns=dns_hist, total=total_hist), handed_over


class RecordingObserver:
    """Stands in for the district observer: keeps what the kernel hands
    over and does nothing with it."""

    def __init__(self, tel: Telemetry, sites: int, deployment: str,
                 scope: str) -> None:
        self.sessions: List[Session] = []
        self.closed: Dict[str, int] = {}

    def session(self, ue: int, ordinal: int, home_site: int,
                records: List[QueryRecord]) -> None:
        # The list is the kernel's and is reused for the next session.
        self.sessions.append((ue, ordinal, home_site, list(records)))

    def close(self, **counters: int) -> None:
        assert not self.closed, "close() is once per district"
        self.closed = counters


def first_divergence(got: List[Session],
                     expected: List[Session]) -> Optional[str]:
    """Name the first session or query the kernel and the reference
    state differently, or ``None`` when they agree throughout."""
    for ours, theirs in zip(got, expected):
        if ours[:3] != theirs[:3]:
            return f"session {ours[:3]} where the reference has {theirs[:3]}"
        for query, (mine, reference) in enumerate(zip(ours[3], theirs[3])):
            if mine != reference:
                return (f"ue {ours[0]} session {ours[1]} query {query}: "
                        f"{mine} != {reference}")
        if len(ours[3]) != len(theirs[3]):
            return (f"ue {ours[0]} session {ours[1]}: {len(ours[3])} "
                    f"records, the reference has {len(theirs[3])}")
    if len(got) != len(expected):
        return f"{len(got)} sessions, the reference has {len(expected)}"
    return None


def assert_records_rederive(stats: DistrictStats, observer: RecordingObserver,
                            caches_per_site: int) -> None:
    """The record stream carries the district's exact counters."""
    records = [record for session in observer.sessions
               for record in session[3]]
    assert len(records) == stats.queries
    assert sum(record[3] for record in records) == stats.hits
    assert sum(record[1] == record[2] for record in records) == stats.localized
    assert sum(record[8] > 0.0 for record in records) == stats.handovers
    served = [0] * (len(stats.cache_load) // caches_per_site)
    for record in records:
        served[record[2]] += 1
    assert served == [sum(stats.cache_load[at:at + caches_per_site])
                      for at in range(0, len(stats.cache_load),
                                      caches_per_site)]
    assert len(observer.sessions) == stats.sessions
    assert len({session[0] for session in observer.sessions}) == \
        stats.active_ues
    assert observer.closed == {
        "queries": stats.queries, "hits": stats.hits,
        "localized": stats.localized, "sessions": stats.sessions,
        "handovers": stats.handovers}


def histogram_fields(hist: LatencyHistogram) -> Tuple[object, ...]:
    return (hist.counts, hist.count, hist.total, hist.minimum, hist.maximum)


def every_field(stats: DistrictStats) -> Tuple[object, ...]:
    return (stats.queries, stats.sessions, stats.active_ues, stats.hits,
            stats.localized, stats.handovers, stats.cache_load,
            histogram_fields(stats.dns), histogram_fields(stats.total))


@pytest.fixture(scope="module")
def models() -> Dict[str, DeploymentModel]:
    return {"localized": calibrate("mec-ldns-mec-cdns", seed=42),
            "blind": calibrate("google-dns", seed=42)}


@pytest.fixture
def sampled_telemetry() -> Iterator[Telemetry]:
    tel = Telemetry.from_config(SAMPLED)
    telemetry_mod.set_default(tel)
    try:
        yield tel
    finally:
        telemetry_mod.clear_default()


class TestRunDistrictMatchesTheReference:
    # Catalogs below, at and above HEAD: every rank has a memo slot in
    # the first three, most of the last one's ranks do not.
    CATALOGS = (50, 2_000, HEAD, 50_000)

    def grid(self) -> Iterator[Tuple[DistrictConfig, str, int]]:
        for allocation in ("content", "client", "client-bounded"):
            for which in ("localized", "blind"):
                for sites in (1, 4):
                    for catalog in self.CATALOGS:
                        for seed in (3, 7, 11):
                            yield (BASE._replace(allocation=allocation,
                                                 sites=sites,
                                                 catalog_size=catalog),
                                   which, seed)

    def test_the_grid_straddles_head(self) -> None:
        assert self.CATALOGS[0] < HEAD < self.CATALOGS[-1]
        assert HEAD in self.CATALOGS

    def assert_matches(
            self, models: Dict[str, DeploymentModel],
            observers: Optional[List[RecordingObserver]] = None) -> None:
        for config, which, seed in self.grid():
            where = (config.allocation, which, config.sites,
                     config.catalog_size, seed)
            expected, sessions = reference_run_district(
                config, models[which], seed)
            assert expected.queries > 100
            got = run_district(config, models[which], seed,
                               scope=f"{which}/{seed}")
            assert every_field(got) == every_field(expected), where
            if observers is not None:
                observer = observers.pop()
                assert not observers, "one observer per district"
                assert first_divergence(observer.sessions,
                                        sessions) is None, where
                assert_records_rederive(got, observer,
                                        config.caches_per_site)

    def test_telemetry_off(self, models: Dict[str, DeploymentModel]) -> None:
        self.assert_matches(models)

    def test_telemetry_sampled(self, models: Dict[str, DeploymentModel],
                               sampled_telemetry: Telemetry) -> None:
        self.assert_matches(models)
        # The observability block really ran beside the kernel.
        assert len(sampled_telemetry.tail) == SAMPLED.tail_capacity
        assert sampled_telemetry.tracer.finished

    def test_records_match_the_reference(
            self, models: Dict[str, DeploymentModel],
            sampled_telemetry: Telemetry,
            monkeypatch: pytest.MonkeyPatch) -> None:
        # The kernel builds its observer from the ambient facade; stand
        # a recorder in for it and compare query for query.
        observers: List[RecordingObserver] = []

        def recorder(*args: Any) -> RecordingObserver:
            observers.append(RecordingObserver(*args))
            return observers[-1]

        monkeypatch.setattr(engine, "_DistrictObserver", recorder)
        self.assert_matches(models, observers)
        assert not sampled_telemetry.tracer.finished

    def test_tail_ranks_are_exercised(self) -> None:
        # The above-HEAD catalog must actually draw ranks past the memo,
        # or the tail path is compared against nothing.
        rng = random.Random(1)
        stream = ZipfRankStream(self.CATALOGS[-1], rng, exponent=0.9)
        assert sum(rank > HEAD for rank in stream.ranks(1000)) > 50


class TestRouterMemo:
    @pytest.mark.parametrize("allocation",
                             ["content", "client", "client-bounded"])
    def test_membership_is_fixed_and_selection_is_sticky(
            self, allocation: str) -> None:
        # The invariant the memo rests on: nothing a district does
        # changes who is on a ring, so asking twice answers the same.
        config = BASE._replace(allocation=allocation, catalog_size=50_000)
        router = _Router(config)

        def members(ring: Any) -> List[str]:
            return sorted(str(member) for member in ring.walk("k"))

        before = [members(ring) for ring in router._rings]
        for site, names in enumerate(before):
            assert names == sorted(
                name for name, index in router._index.items()
                if index // config.caches_per_site == site)
        clients = [f"10.64.0.{index}" for index in range(60)]
        ranks = [1, 2, 17, HEAD - 1, HEAD, HEAD + 1, 49_999]
        first = {(site, rank, client): router.select(site, rank, client)
                 for site in range(config.sites)
                 for rank in ranks for client in clients}
        for (site, rank, client), chosen in first.items():
            assert router.select(site, rank, client) == chosen
            assert chosen // config.caches_per_site == site
        assert [members(ring) for ring in router._rings] == before
        if router._allocators is not None:
            for site, allocator in enumerate(router._allocators):
                assert members(allocator._ring) == before[site]

    def test_head_table_records_what_the_ring_answered(self) -> None:
        config = BASE._replace(catalog_size=50_000)
        router = _Router(config)
        reference = ReferenceRouter(config)
        for site in range(config.sites):
            assert not any(router.head_tables[site])
            for rank in (1, 5, HEAD, HEAD + 1):
                chosen = router.select(site, rank, "10.64.0.1")
                assert chosen == reference.select(
                    site, f"obj{rank:07d}.pop.mycdn.ciab.test", "10.64.0.1")
                if rank <= HEAD:
                    assert router.head_tables[site][rank] == chosen + 1
            assert len(router.head_tables[site]) == HEAD + 1

    def test_client_policies_leave_the_head_tables_empty(self) -> None:
        router = _Router(BASE._replace(allocation="client"))
        router.select(0, 1, "10.64.0.1")
        assert not any(router.head_tables[0])

    def test_table_is_no_longer_than_the_catalog(self) -> None:
        router = _Router(BASE._replace(catalog_size=50))
        assert router.head == 50
        assert all(len(table) == 51 for table in router.head_tables)

    def test_wide_districts_get_wider_cells(self) -> None:
        config = BASE._replace(sites=64, caches_per_site=4, catalog_size=300)
        router = _Router(config)
        last = config.sites - 1
        chosen = {router.select(last, rank, "") for rank in range(1, 301)}
        assert max(chosen) >= 255
        assert {router.head_tables[last][rank] - 1
                for rank in range(1, 301)} == chosen

    def test_memo_memory_is_independent_of_catalog_size(self) -> None:
        config = BASE._replace(catalog_size=10 ** 7)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            router = _Router(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert router.head == HEAD
        assert peak - baseline < 64 * 1024 * config.sites


class TestChoiceStreamPin:
    def test_getrandbits_rejection_is_random_choice(self) -> None:
        # run_district draws an Empirical leg's index with the loop
        # Random.choice runs underneath (getrandbits(n.bit_length())
        # until below n).  If a CPython release changes that, this fails
        # by name before any digest moves.
        for n in range(1, 258):
            population = list(range(n))
            bits = n.bit_length()
            by_choice = random.Random(n)
            by_bits = random.Random(n)
            getrandbits = by_bits.getrandbits
            drawn = []
            for _ in range(10_000):
                draw = getrandbits(bits)
                while draw >= n:
                    draw = getrandbits(bits)
                drawn.append(draw)
            assert drawn == [by_choice.choice(population)
                             for _ in range(10_000)], n
            assert by_bits.getstate() == by_choice.getstate(), n
