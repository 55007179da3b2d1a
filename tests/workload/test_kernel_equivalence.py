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

import bisect
import hashlib
import math
import random
import tracemalloc
from array import array
from random import NV_MAGICCONST
from typing import Any, Dict, Iterator, List, Optional, Tuple, cast

import pytest

from repro import telemetry as telemetry_mod
from repro.workload import engine
from repro.cdn.allocation import ConsistentAllocator, HashRing, hash_point
from repro.cdn.content import ZipfRankStream
from repro.measure.histogram import BINS_PER_DECADE, LOW_MS, LatencyHistogram
from repro.netsim.latency import LogNormal
from repro.runtime.spec import derive_seed
from repro.telemetry import Telemetry, TelemetryConfig
from repro.workload.arrivals import (SECONDS_PER_DAY, SECONDS_PER_HOUR,
                                     DiurnalProfile)
from repro.workload.caches import RankLru
from repro.workload.deployment import (INTER_SITE_LEG, INTRA_SITE_LEG,
                                       ORIGIN_LEG, ORIGIN_SERVICE_MS,
                                       DeploymentModel, calibrate)
from repro.workload.engine import (HEAD, DistrictConfig, DistrictStats,
                                   _Router, run_district)
from repro.workload.mobility import HANDOVER_INTERRUPTION_MS
from repro.workload.observer import QueryRecord
from tests.workload.reference import (Arrivals, Mobility, Population,
                                      SessionPlacement, Sessions,
                                      UserProfile)

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
    arrivals = Arrivals(config.sessions_per_ue_hour / 3600.0,
                        DiurnalProfile())
    session_model = Sessions(mean_requests=config.mean_requests,
                             mean_think_s=config.mean_think_s)
    mobility = Mobility(config.sites,
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
                start += rng.expovariate(1 / config.mean_think_s)
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


@pytest.fixture(scope="module")
def references() -> Dict[Tuple[object, ...], Tuple[object, ...]]:
    """The reference loop's fields per grid district, computed once for
    the tests that compare aggregates only."""
    return {}


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
    # Exponents beside BASE's 0.9, on a content / 4-site slice: 1.0
    # takes the sampler's logarithmic branch, 1.2 its s > 1 envelope.
    EXPONENTS = (0.5, 1.0, 1.2)

    # Placement at 2 sites draws the other site as randrange(1), which
    # is getrandbits(1) until 0; at 3 sites as randrange(2).
    SITES = (1, 2, 3, 4)
    # Move and handover probabilities at both ends, beside BASE's 0.3:
    # 0 skips a draw, 1 always takes the branch.
    MOBILITY = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

    def grid(self) -> Iterator[Tuple[DistrictConfig, str, int]]:
        for allocation in ("content", "client", "client-bounded"):
            for which in ("localized", "blind"):
                for sites in self.SITES:
                    for catalog in self.CATALOGS:
                        for seed in (3, 7, 11):
                            yield (BASE._replace(allocation=allocation,
                                                 sites=sites,
                                                 catalog_size=catalog),
                                   which, seed)
        for exponent in self.EXPONENTS:
            for which in ("localized", "blind"):
                for catalog in (2_000, 50_000):
                    for seed in (3, 7, 11):
                        yield (BASE._replace(zipf_exponent=exponent,
                                             catalog_size=catalog),
                               which, seed)
        for move, handover in self.MOBILITY:
            for which in ("localized", "blind"):
                for seed in (3, 7, 11):
                    yield (BASE._replace(move_probability=move,
                                         handover_probability=handover),
                           which, seed)

    def test_the_grid_straddles_head(self) -> None:
        assert self.CATALOGS[0] < HEAD < self.CATALOGS[-1]
        assert HEAD in self.CATALOGS

    def assert_matches(
            self, models: Dict[str, DeploymentModel],
            references: Dict[Tuple[object, ...], Tuple[object, ...]],
            observers: Optional[List[RecordingObserver]] = None) -> None:
        for config, which, seed in self.grid():
            where = (config.allocation, which, config.sites,
                     config.catalog_size, config.zipf_exponent,
                     config.move_probability, config.handover_probability,
                     seed)
            sessions: List[Session] = []
            if observers is not None or where not in references:
                expected, sessions = reference_run_district(
                    config, models[which], seed)
                assert expected.queries > 100
                references[where] = every_field(expected)
            got = run_district(config, models[which], seed,
                               scope=f"{which}/{seed}")
            assert every_field(got) == references[where], where
            if observers is not None:
                observer = observers.pop()
                assert not observers, "one observer per district"
                assert first_divergence(observer.sessions,
                                        sessions) is None, where
                assert_records_rederive(got, observer,
                                        config.caches_per_site)

    def test_telemetry_off(
            self, models: Dict[str, DeploymentModel],
            references: Dict[Tuple[object, ...], Tuple[object, ...]]) -> None:
        self.assert_matches(models, references)

    def test_telemetry_sampled(
            self, models: Dict[str, DeploymentModel],
            references: Dict[Tuple[object, ...], Tuple[object, ...]],
            sampled_telemetry: Telemetry) -> None:
        self.assert_matches(models, references)
        # The observability block really ran beside the kernel.
        assert len(sampled_telemetry.tail) == SAMPLED.tail_capacity
        assert sampled_telemetry.tracer.finished

    def test_records_match_the_reference(
            self, models: Dict[str, DeploymentModel],
            references: Dict[Tuple[object, ...], Tuple[object, ...]],
            sampled_telemetry: Telemetry,
            monkeypatch: pytest.MonkeyPatch) -> None:
        # The kernel builds its observer from the ambient facade; stand
        # a recorder in for it and compare query for query.
        observers: List[RecordingObserver] = []

        def recorder(*args: Any) -> RecordingObserver:
            observers.append(RecordingObserver(*args))
            return observers[-1]

        monkeypatch.setattr(engine, "_DistrictObserver", recorder)
        self.assert_matches(models, references, observers)
        assert not sampled_telemetry.tracer.finished

    def test_tail_ranks_are_exercised(self) -> None:
        # The above-HEAD catalog must actually draw ranks past the memo,
        # or the tail path is compared against nothing.
        rng = random.Random(1)
        stream = ZipfRankStream(self.CATALOGS[-1], rng, exponent=0.9)
        assert sum(rank > HEAD for rank in stream.ranks(1000)) > 50


def ring_select(router: _Router, site: int, rank: int) -> int:
    """The kernel's in-line content selection: bisect the site's ring
    table at the rank's content-key hash."""
    points, owners = router.ring_tables[site]
    return cast(int, owners[bisect.bisect_left(
        points, hash_point(f"obj{rank:07d}.pop.mycdn.ciab.test"))])


def district_router(config: DistrictConfig, model: DeploymentModel,
                    monkeypatch: pytest.MonkeyPatch) -> _Router:
    """Run one district and return the router it filled."""
    routers: List[_Router] = []

    def capture(config: DistrictConfig) -> _Router:
        routers.append(_Router(config))
        return routers[-1]

    monkeypatch.setattr(engine, "_Router", capture)
    run_district(config, model, 7)
    (router,) = routers
    return router


class TestRouterMemo:
    @pytest.mark.parametrize("allocation",
                             ["content", "client", "client-bounded"])
    def test_membership_is_fixed_and_selection_is_sticky(
            self, allocation: str) -> None:
        # The invariant the memo rests on: nothing a district does
        # changes who is on a ring, so asking twice answers the same.
        config = BASE._replace(allocation=allocation, catalog_size=50_000)
        router = _Router(config)
        per_site = config.caches_per_site

        def members(ring: Any) -> List[object]:
            return sorted(ring.walk("k"))

        before = [members(ring) for ring in router._rings]
        assert before == [list(range(site * per_site, (site + 1) * per_site))
                          for site in range(config.sites)]
        clients = [f"10.64.0.{index}" for index in range(60)]
        ranks = [1, 2, 17, HEAD - 1, HEAD, HEAD + 1, 49_999]
        if allocation == "content":
            first = {(site, rank): ring_select(router, site, rank)
                     for site in range(config.sites) for rank in ranks}
            again = {key: ring_select(router, *key) for key in first}
        else:
            first = {(site, client): router.select(site, client)
                     for site in range(config.sites) for client in clients}
            again = {key: router.select(*key) for key in first}
        assert again == first
        assert all(chosen // per_site == key[0]
                   for key, chosen in first.items())
        assert [members(ring) for ring in router._rings] == before
        if router._allocators is not None:
            for site, allocator in enumerate(router._allocators):
                assert sorted(router._index[name] for name
                              in allocator._ring.walk("k")) == before[site]

    @pytest.mark.parametrize("allocation",
                             ["content", "client", "client-bounded"])
    def test_selection_is_the_reference_routers(self,
                                                allocation: str) -> None:
        config = BASE._replace(allocation=allocation, catalog_size=50_000)
        router = _Router(config)
        reference = ReferenceRouter(config)
        for site in range(config.sites):
            for rank in (1, 5, HEAD, HEAD + 1, 49_999):
                key = f"obj{rank:07d}.pop.mycdn.ciab.test"
                client = f"10.64.0.{rank % 256}"
                if allocation == "content":
                    chosen = ring_select(router, site, rank)
                else:
                    chosen = router.select(site, client)
                assert chosen == reference.select(site, key, client)

    def test_tables_hold_what_the_ring_answered(
            self, models: Dict[str, DeploymentModel],
            monkeypatch: pytest.MonkeyPatch) -> None:
        config = BASE._replace(catalog_size=50_000)
        router = district_router(config, models["localized"], monkeypatch)
        reference = ReferenceRouter(config)
        asked = 0
        for site, table in enumerate(router.head_tables):
            assert len(table) == HEAD + 1
            for rank in range(1, HEAD + 1):
                if table[rank]:
                    asked += 1
                    assert table[rank] - 1 == reference.select(
                        site, f"obj{rank:07d}.pop.mycdn.ciab.test", "")
        assert asked > 100
        points = router.head_points
        assert len(points) == HEAD + 1
        for rank in range(1, HEAD + 1):
            if points[rank]:
                assert points[rank] == hash_point(
                    f"obj{rank:07d}.pop.mycdn.ciab.test")
        # A rank is hashed once whatever the site that asked first.
        assert {rank for rank in range(1, HEAD + 1) if points[rank]} == {
            rank for table in router.head_tables
            for rank in range(1, HEAD + 1) if table[rank]}

    @pytest.mark.parametrize("allocation", ["client", "client-bounded"])
    def test_client_policies_build_no_head_tables(
            self, allocation: str, models: Dict[str, DeploymentModel],
            monkeypatch: pytest.MonkeyPatch) -> None:
        router = district_router(BASE._replace(allocation=allocation),
                                 models["localized"], monkeypatch)
        assert router.head_tables == []
        assert len(router.head_points) == 0

    def test_table_is_no_longer_than_the_catalog(self) -> None:
        router = _Router(BASE._replace(catalog_size=50))
        assert router.head == 50
        assert all(len(table) == 51 for table in router.head_tables)
        assert len(router.head_points) == 51

    def test_wide_districts_get_wider_cells(self) -> None:
        config = BASE._replace(sites=64, caches_per_site=4, catalog_size=300)
        router = _Router(config)
        last = config.sites - 1
        table = router.head_tables[last]
        chosen = set()
        for rank in range(1, 301):
            chosen.add(ring_select(router, last, rank))
            table[rank] = ring_select(router, last, rank) + 1
        assert max(chosen) >= 255
        assert {table[rank] - 1 for rank in range(1, 301)} == chosen

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


def inline_ranks(stream: ZipfRankStream, rng: random.Random,
                 count: int) -> List[int]:
    """``count`` ranks by the kernel's in-line Zipf loop: ``stream``'s
    constants, ``rng``'s draws and a lazily filled ratio table."""
    rand = rng.random
    head = min(stream.n, HEAD)
    ratios = array("d", [0.0]) * (head + 1)
    one_minus_s = stream.one_minus_s
    inverse_power = 0.0 if stream.logarithmic else 1.0 / one_minus_s
    ranks = []
    for _ in range(count):
        rank = 1
        while stream.n > 1:
            if stream.logarithmic:
                k = int(math.exp(rand() * stream.total))
            else:
                k = int((1.0 + rand() * stream.total * one_minus_s)
                        ** inverse_power)
            k = min(max(k, 1), stream.n)
            ratio = ratios[k] if k <= head else 0.0
            if not ratio:
                if stream.logarithmic:
                    cell = math.log(float(k + 1)) - math.log(float(k))
                else:
                    cell = ((float(k + 1) ** one_minus_s - 1.0) / one_minus_s
                            - (float(k) ** one_minus_s - 1.0) / one_minus_s)
                ratio = (k ** -stream.exponent) * stream.cell_one / cell
                if k <= head:
                    ratios[k] = ratio
            if rand() <= ratio:
                rank = k
                break
        ranks.append(rank)
    return ranks


def inline_bin(counts: List[int], value_ms: float) -> None:
    """The kernel's in-line histogram bin."""
    top_bin = LatencyHistogram.size - 1
    if value_ms <= LOW_MS:
        counts[0] += 1
    else:
        at = int(math.log10(value_ms / LOW_MS) * BINS_PER_DECADE)
        counts[at if at < top_bin else top_bin] += 1


class TestInlineDrawPins:
    """Each draw ``run_district`` writes out, against the call it
    replaces: the same values and the same RNG state afterwards, so a
    CPython that changes one of these calls fails here by name before
    any digest moves."""

    @pytest.mark.parametrize("exponent", [0.5, 0.9, 1.0, 1.2])
    @pytest.mark.parametrize("n", [1, 2, 50, HEAD, 100_000])
    def test_zipf_loop_is_next_rank(self, n: int, exponent: float) -> None:
        by_method = random.Random(n)
        by_loop = random.Random(n)
        stream = ZipfRankStream(n, by_method, exponent=exponent)
        expected = list(stream.ranks(5_000))
        assert inline_ranks(stream, by_loop, 5_000) == expected
        assert by_loop.getstate() == by_method.getstate()

    @pytest.mark.parametrize("leg", [INTER_SITE_LEG, ORIGIN_LEG],
                             ids=["inter_site", "origin"])
    def test_lognormal_loop_is_sample(self, leg: LogNormal) -> None:
        # Random.lognormvariate is exp(normalvariate), and normalvariate
        # is this Kinderman-Monahan loop in 3.10 through 3.13.
        by_sample = random.Random(5)
        by_loop = random.Random(5)
        rand = by_loop.random
        drawn = []
        for _ in range(10_000):
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -math.log(u2):
                    break
            drawn.append(leg.shift + math.exp(leg.mu + z * leg.sigma))
        assert drawn == [leg.sample(by_sample) for _ in range(10_000)]
        assert by_loop.getstate() == by_sample.getstate()

    @pytest.mark.parametrize("mean_s", [BASE.mean_think_s, 0.3, 30.0])
    def test_exponential_is_expovariate(self, mean_s: float) -> None:
        by_call = random.Random(9)
        by_hand = random.Random(9)
        rate = 1.0 / mean_s
        drawn = [-math.log(1.0 - by_hand.random()) / rate
                 for _ in range(10_000)]
        assert drawn == [by_call.expovariate(1 / mean_s)
                         for _ in range(10_000)]
        assert by_hand.getstate() == by_call.getstate()

    def test_inline_bin_is_add(self) -> None:
        # Every edge of the grid (the 256 bins have 257), one ulp either
        # side, the floor, and values far past the top edge.
        values = [0.0, 1e-9, LOW_MS, 1e7, 1e12, 1e300]
        for index in range(LatencyHistogram.size + 1):
            edge = LOW_MS * 10.0 ** (index / BINS_PER_DECADE)
            values += [math.nextafter(edge, 0.0), edge,
                       math.nextafter(edge, math.inf)]
        for value in values:
            counts = [0] * LatencyHistogram.size
            inline_bin(counts, value)
            hist = LatencyHistogram()
            hist.add(value)
            assert counts == hist.counts, value

    def test_content_key_is_the_f_string(self) -> None:
        for rank in (1, 9, 10, 8_191, 8_192, 999_999, 9_999_999,
                     10 ** 7, 10 ** 7 + 1, 123_456_789, 2 ** 40):
            assert engine.CONTENT_KEY % rank == \
                f"obj{rank:07d}.pop.mycdn.ciab.test".encode(), rank


def inline_seed(prefix: Any, index: int) -> int:
    """The kernel's per-UE digest: the district's hashed prefix, copied,
    with the index's digits appended."""
    hashed = prefix.copy()
    hashed.update(str(index).encode())
    return int.from_bytes(hashed.digest()[:8], "big")


def inline_arrivals(arrivals: Arrivals, rng: random.Random,
                    duration_s: float, start_s: float) -> List[float]:
    """The kernel's thinning loop, collecting what it keeps."""
    rand = rng.random
    rate_max = arrivals.rate_max
    hour_rates = [arrivals.scale * level for level in arrivals.profile.hourly]
    end_s = start_s + duration_s
    kept = []
    arrival = start_s
    while True:
        arrival += -math.log(1.0 - rand()) / rate_max
        if arrival >= end_s:
            break
        if rand() * rate_max > hour_rates[
                int((arrival % SECONDS_PER_DAY) // SECONDS_PER_HOUR)]:
            continue
        kept.append(arrival)
    return kept


def inline_requests(rng: random.Random, request_p: float) -> int:
    """The kernel's geometric request count."""
    rand = rng.random
    requests = 1
    while rand() >= request_p:
        requests += 1
    return requests


def inline_placement(rng: random.Random, model: Mobility, home_site: int,
                     requests: int) -> SessionPlacement:
    """The kernel's session placement."""
    rand = rng.random
    getrandbits = rng.getrandbits
    sites = model.sites
    move_p = model.move_probability
    handover_p = model.handover_probability
    others = sites - 1
    other_bits = others.bit_length()
    handover_at = -1
    if sites == 1:
        site = handover_site = 0
    else:
        site = home_site
        if move_p > 0 and rand() < move_p:
            pick = getrandbits(other_bits)
            while pick >= others:
                pick = getrandbits(other_bits)
            site = pick if pick < home_site else pick + 1
        handover_site = site
        if (requests > 1 and handover_p > 0
                and rand() < handover_p):
            pick = getrandbits(other_bits)
            while pick >= others:
                pick = getrandbits(other_bits)
            handover_site = pick if pick < site else pick + 1
            span = requests - 1
            bits = span.bit_length()
            pick = getrandbits(bits)
            while pick >= span:
                pick = getrandbits(bits)
            handover_at = 1 + pick
    return SessionPlacement(site, handover_site, handover_at)


def inline_client_key(index: int) -> str:
    """The kernel's client key."""
    return (f"10.{64 + (index >> 16) % 64}."
            f"{(index >> 8) & 0xFF}.{index & 0xFF}")


class TestPerUeDrawPins:
    """The per-UE and per-session set-up ``run_district`` writes out,
    against the ``tests/workload/reference.py`` call it replaces: the
    same values and, for a draw, the same RNG state afterwards."""

    SEEDS = (0, 1, 2 ** 64 - 1)
    INDICES = (0, 9, 10, 99, 100, 65_535, 65_536, 10 ** 6, 2 ** 31)

    def test_prefix_copy_is_derive_seed(self) -> None:
        for seed in self.SEEDS:
            for part in ("ue", "home"):
                prefix = hashlib.sha256(f"{seed}:{part}:".encode())
                before = prefix.digest()
                for index in self.INDICES:
                    assert inline_seed(prefix, index) == \
                        derive_seed(seed, part, index), (seed, part, index)
                # Copies leave the district's prefix as it was.
                assert prefix.digest() == before

    def test_reseeded_random_is_a_fresh_one(self) -> None:
        # One Random per district, re-seeded per UE after the previous
        # UE drew, gauss() (which keeps a spare normal) included.
        shared = random.Random(42)
        for seed in (*self.SEEDS, 2 ** 63 + 5, 12_345):
            shared.seed(seed)
            fresh = random.Random(seed)
            assert shared.getstate() == fresh.getstate(), seed
            for rng in (shared, fresh):
                rng.random()
                rng.getrandbits(7)
                rng.gauss(0.0, 1.0)
            assert shared.getstate() == fresh.getstate(), seed

    @pytest.mark.parametrize("start_s, duration_s", [
        (0.0, 30 * SECONDS_PER_HOUR),
        (18 * SECONDS_PER_HOUR, 12 * SECONDS_PER_HOUR)],
        ids=["midnight", "evening"])
    def test_thinning_loop_is_times(self, start_s: float,
                                    duration_s: float) -> None:
        # Both windows cross a midnight, where the hour bucket wraps.
        arrivals = Arrivals(0.05, DiurnalProfile())
        by_call = random.Random(19)
        by_loop = random.Random(19)
        expected = list(arrivals.times(by_call, duration_s, start_s=start_s))
        assert len(expected) > 1_000
        assert any(t >= SECONDS_PER_DAY for t in expected)
        assert inline_arrivals(arrivals, by_loop, duration_s,
                               start_s) == expected
        assert by_loop.getstate() == by_call.getstate()

    @pytest.mark.parametrize("mean", [1.0, 8.0, 30.0])
    def test_geometric_loop_is_request_count(self, mean: float) -> None:
        model = Sessions(mean_requests=mean)
        by_call = random.Random(23)
        by_loop = random.Random(23)
        expected = [model.request_count(by_call) for _ in range(10_000)]
        assert [inline_requests(by_loop, model.p)
                for _ in range(10_000)] == expected
        assert by_loop.getstate() == by_call.getstate()

    @pytest.mark.parametrize("sites", [1, 2, 3, 4])
    def test_placement_is_place_session(self, sites: int) -> None:
        for move in (0.0, 0.15, 1.0):
            for handover in (0.0, 0.15, 1.0):
                model = Mobility(sites, move_probability=move,
                                 handover_probability=handover)
                by_call = random.Random(sites)
                by_loop = random.Random(sites)
                for draw in range(600):
                    home_site = draw % sites
                    requests = 1 + draw % 40
                    assert inline_placement(
                        by_loop, model, home_site, requests) == \
                        model.place_session(by_call, home_site, requests), (
                            sites, move, handover, draw)
                assert by_loop.getstate() == by_call.getstate()

    def test_client_key_is_client_ip(self) -> None:
        for index in (0, 255, 256, 65_535, 65_536, 2 ** 22):
            assert inline_client_key(index) == \
                UserProfile(index, 0, 0).client_ip(), index
