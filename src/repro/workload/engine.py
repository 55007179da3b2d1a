"""The population workload engine: drive a deployment at city scale.

One :func:`run_district` call simulates a *district*: an independent
slice of the city (its own UEs, MEC sites, and caches) running one
calibrated deployment for a stretch of simulated time.  Districts are
the sharding unit — the experiment's trial plan is identical serial
and sharded, and a district's result depends only on its config and
seed — so merging district stats in spec order keeps the runtime's
byte-identical contract for free.

Per request the engine composes exactly the decisions the packet-level
stack makes, without the packets:

* DNS cost sampled from the deployment's calibrated wireless/resolver
  legs (:mod:`repro.workload.deployment`);
* cache selection through the *same* consistent-hash geometry the
  traffic router uses (:mod:`repro.cdn.allocation`) — content hashing,
  client hashing, or Huang et al.'s bounded-load client allocation —
  for the client-aware MEC deployments, or the anchor cache for the
  client-blind warmed resolvers (the paper's mislocalization);
* LRU hit/miss at the selected cache, with intra-site, inter-site, and
  origin-fill legs priced from the testbed's link constants;
* inter-site mobility and mid-session handover interruptions
  (:mod:`repro.workload.mobility`).

Aggregation is streaming only: two :class:`LatencyHistogram` instances
and exact counters.  No query's record outlives its session.

When ambient telemetry is installed (:func:`repro.telemetry.get_default`)
the kernel also states each query as one plain tuple
(:data:`repro.workload.observer.QueryRecord`) and hands a session's
tuples to the district's observer when the session ends; windows,
sampled session trees and tail exemplars are that module's business.
Forming the tuple draws nothing and reads no clock, and nothing comes
back from the observer, so the district's :class:`DistrictStats` (hence
every digest) is byte-identical with telemetry on or off.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, MutableSequence, NamedTuple, Optional

from repro import telemetry as _telemetry
from repro.cdn.allocation import (ConsistentAllocator, HashRing,
                                  check_allocation)
from repro.cdn.content import ZipfRankStream
from repro.measure.histogram import LatencyHistogram
from repro.runtime.spec import derive_seed
from repro.workload.arrivals import DiurnalProfile, NhppArrivals
from repro.workload.caches import RankLru
from repro.workload.deployment import (INTER_SITE_LEG, INTRA_SITE_LEG,
                                       ORIGIN_LEG, ORIGIN_SERVICE_MS,
                                       DeploymentModel)
from repro.workload.mobility import HANDOVER_INTERRUPTION_MS, MobilityModel
from repro.workload.observer import QueryRecord, _DistrictObserver
from repro.workload.population import Population, UserProfile
from repro.workload.sessions import SessionModel

#: Content ranks whose cache selection a district remembers per site.
#: Zipf traffic asks for the head over and over; the tail goes to the
#: ring every time, so memory does not grow with the catalog.
HEAD = 8192


class DistrictConfig(NamedTuple):
    """Everything that defines one district's workload."""

    ues: int
    sites: int
    caches_per_site: int
    #: Objects each cache can hold.
    cache_capacity: int
    #: Synthetic catalog size (never materialized).
    catalog_size: int
    zipf_exponent: float
    #: Simulated span of the run, seconds.
    duration_s: float
    #: Day-average sessions per UE per hour.
    sessions_per_ue_hour: float
    mean_requests: float
    mean_think_s: float
    move_probability: float
    handover_probability: float
    allocation: str
    #: Simulated start time (seconds past midnight) — picks the diurnal
    #: window the run covers.
    start_s: float = 0.0


class DistrictStats(NamedTuple):
    """One district's streaming aggregates (mergeable, picklable)."""

    queries: int
    sessions: int
    active_ues: int
    hits: int
    #: Requests served by a cache at the UE's current site.
    localized: int
    handovers: int
    #: Requests served per (site, cache), flattened site-major — the
    #: load-balance evidence for the allocation policies.
    cache_load: List[int]
    dns: LatencyHistogram
    total: LatencyHistogram

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def localization(self) -> float:
        return self.localized / self.queries if self.queries else 0.0

    def load_imbalance(self) -> float:
        """max/mean over per-cache serve counts (1.0 = perfectly flat)."""
        if not self.cache_load or not self.queries:
            return 0.0
        mean = sum(self.cache_load) / len(self.cache_load)
        return max(self.cache_load) / mean if mean else 0.0


def merge_stats(parts: List[DistrictStats]) -> DistrictStats:
    """Fold district stats in the given order (exact counters, merged
    histograms); the caller supplies spec order for determinism."""
    if not parts:
        empty = LatencyHistogram()
        return DistrictStats(0, 0, 0, 0, 0, 0, [], empty, LatencyHistogram())
    cache_load = list(parts[0].cache_load)
    dns = LatencyHistogram()
    total = LatencyHistogram()
    queries = sessions = active = hits = localized = handovers = 0
    for part in parts:
        queries += part.queries
        sessions += part.sessions
        active += part.active_ues
        hits += part.hits
        localized += part.localized
        handovers += part.handovers
        dns.merge(part.dns)
        total.merge(part.total)
    for part in parts[1:]:
        if len(part.cache_load) != len(cache_load):
            raise ValueError("districts have mismatched cache grids")
        for index, load in enumerate(part.cache_load):
            cache_load[index] += load
    return DistrictStats(
        queries=queries, sessions=sessions, active_ues=active, hits=hits,
        localized=localized, handovers=handovers, cache_load=cache_load,
        dns=dns, total=total)


class _Router:
    """The district's cache-selection logic, shared-geometry with the
    production router.

    **Invariant:** ring and allocator membership never changes inside a
    district, and nothing passes an eligibility predicate, so a
    selection is a pure function of (site, content key) under
    ``content`` and sticky per (site, client key) under ``client`` /
    ``client-bounded``.  That is what lets a selection be remembered:
    :meth:`select` consults the ring once per (site, head rank) and
    keeps the answer in :attr:`head_tables`; the engine keeps the
    client policies' answer once per (UE, site).
    """

    def __init__(self, config: DistrictConfig) -> None:
        check_allocation(config.allocation)
        self._allocation = config.allocation
        names = [[f"site{site}-cache{cache}"
                  for cache in range(config.caches_per_site)]
                 for site in range(config.sites)]
        self._index: Dict[str, int] = {}
        for site, row in enumerate(names):
            for cache, name in enumerate(row):
                self._index[name] = site * config.caches_per_site + cache
        self._rings: List[HashRing] = [
            HashRing(row, name_of=lambda member: str(member))
            for row in names]
        self._allocators: Optional[List[ConsistentAllocator]] = None
        if config.allocation == "client-bounded":
            self._allocators = [ConsistentAllocator(row) for row in names]
        #: Ranks ``1..head`` have a slot in every site's table.
        self.head = min(config.catalog_size, HEAD)
        # The narrowest unsigned cell that holds every flat index + 1.
        caches = len(self._index)
        cell = "B" if caches < 255 else "H" if caches < 65535 else "L"
        #: Per site, ``table[rank]`` is the flat cache index + 1 that
        #: serves ``rank`` from that site, or 0 until first asked.
        #: O(sites × HEAD) whatever the catalog size.
        self.head_tables: List[MutableSequence[int]] = [
            array(cell, [0]) * (self.head + 1)
            for _ in range(config.sites)]

    def select(self, site: int, rank: int, client_key: str) -> int:
        """The flat cache index serving this request from ``site``.

        Always asks the ring (or the allocator); under ``content`` it
        also records a head rank's answer in :attr:`head_tables`, which
        the engine reads before calling here.
        """
        chosen: Optional[object]
        if self._allocators is not None:
            chosen = self._allocators[site].assign(client_key)
        elif self._allocation == "client":
            chosen = self._rings[site].pick(client_key)
        else:
            chosen = self._rings[site].pick(
                f"obj{rank:07d}.pop.mycdn.ciab.test")
        if chosen is None:  # pragma: no cover - rings are never empty
            raise RuntimeError("empty cache ring")
        cache_index = self._index[str(chosen)]
        if self._allocation == "content" and rank <= self.head:
            self.head_tables[site][rank] = cache_index + 1
        return cache_index


def run_district(config: DistrictConfig, model: DeploymentModel,
                 seed: int, scope: str = "") -> DistrictStats:
    """Simulate one district and return its streaming aggregates.

    ``seed`` roots the district's population; every UE's behaviour is a
    pure function of ``derive_seed(seed, "ue", index)``, so the result
    is independent of process placement.  ``scope`` names this district
    in observability output (exemplar keys, span sampling salt) — pass
    something unique per trial (the population experiment uses
    ``"<deployment>/d<district>"``); it defaults to the deployment key.
    """
    population = Population(config.ues, config.sites, seed)
    profile = DiurnalProfile()
    arrivals = NhppArrivals(
        config.sessions_per_ue_hour / 3600.0, profile)
    session_model = SessionModel(mean_requests=config.mean_requests,
                                 mean_think_s=config.mean_think_s)
    mobility = MobilityModel(config.sites,
                             move_probability=config.move_probability,
                             handover_probability=config.handover_probability)
    router = _Router(config)
    caches = [RankLru(config.cache_capacity)
              for _ in range(config.sites * config.caches_per_site)]
    cache_load = [0] * len(caches)
    dns_hist = LatencyHistogram()
    total_hist = LatencyHistogram()
    queries = sessions = active = hits = localized = handovers = 0

    anchor_cache = 0  # client-blind resolvers answer site 0, cache 0
    per_site = config.caches_per_site

    # -- kernel bindings: everything a query touches, looked up once.
    lookups = [cache.lookup for cache in caches]
    dns_add = dns_hist.add
    total_add = total_hist.add
    think_time = session_model.think_time
    resolves_locally = model.localized
    by_content = config.allocation == "content"
    select = router.select
    head = router.head
    head_tables = router.head_tables
    # A DNS leg is ``rng.choice(samples)``; the loop below draws the
    # index the way ``Random.choice`` does (``getrandbits(k)`` until it
    # is below ``n``) without the two frames.  tests/workload/
    # test_kernel_equivalence.py pins the two stream-identical.
    wireless_samples = model.wireless.samples
    wireless_n = len(wireless_samples)
    wireless_bits = wireless_n.bit_length()
    resolver_samples = model.resolver.samples
    resolver_n = len(resolver_samples)
    resolver_bits = resolver_n.bit_length()
    # Round trips to the cache and the origin: request + response legs.
    # The intra-site leg is a Constant, so it draws nothing.
    intra_fetch_ms = 2.0 * INTRA_SITE_LEG.value
    inter_sample = INTER_SITE_LEG.sample
    origin_sample = ORIGIN_LEG.sample

    # The observer only ever receives: nothing below reads it back, so
    # DistrictStats is identical with telemetry on or off.
    tel = _telemetry.get_default()
    observing = tel is not None
    if observing:
        observer = _DistrictObserver(tel, config.sites, model.key,
                                     scope or model.key)
        #: The current session's query records; emptied at each hand-off.
        records: List[QueryRecord] = []
        record = records.append

    for index in range(config.ues):
        ue: UserProfile = population.user(index)
        rng: random.Random = population.user_rng(ue)
        getrandbits = rng.getrandbits
        next_rank = ZipfRankStream(config.catalog_size, rng,
                                   exponent=config.zipf_exponent).next_rank
        client_key = ue.client_ip()
        #: ``client`` / ``client-bounded``: this UE's cache per site,
        #: asked for on first touch (see the _Router invariant).
        ue_caches = [-1] * config.sites
        ue_sessions = 0
        for start in arrivals.times(rng, config.duration_s,
                                    start_s=config.start_s):
            requests = session_model.request_count(rng)
            placement = mobility.place_session(rng, ue.home_site, requests)
            site = placement.site
            ue_sessions += 1
            for ordinal in range(requests):
                interruption = 0.0
                if ordinal == placement.handover_at:
                    site = placement.handover_site
                    handovers += 1
                    interruption = HANDOVER_INTERRUPTION_MS
                rank = next_rank()
                if not resolves_locally:
                    cache_index = anchor_cache
                elif by_content:
                    cache_index = (head_tables[site][rank] - 1
                                   if rank <= head else -1)
                    if cache_index < 0:
                        cache_index = select(site, rank, client_key)
                else:
                    cache_index = ue_caches[site]
                    if cache_index < 0:
                        cache_index = ue_caches[site] = select(
                            site, rank, client_key)
                served_site = cache_index // per_site
                hit = lookups[cache_index](rank)
                cache_load[cache_index] += 1

                draw = getrandbits(wireless_bits)
                while draw >= wireless_n:
                    draw = getrandbits(wireless_bits)
                wireless_ms = wireless_samples[draw]
                draw = getrandbits(resolver_bits)
                while draw >= resolver_n:
                    draw = getrandbits(resolver_bits)
                resolver_ms = resolver_samples[draw]
                dns_ms = wireless_ms + resolver_ms + interruption
                if served_site == site:
                    localized += 1
                    fetch_ms = intra_fetch_ms
                else:
                    fetch_ms = 2.0 * inter_sample(rng)
                latency = dns_ms + fetch_ms
                if hit:
                    hits += 1
                    origin_ms = 0.0
                else:
                    origin_ms = (2.0 * origin_sample(rng)
                                 + ORIGIN_SERVICE_MS)
                    latency += origin_ms
                queries += 1
                dns_add(dns_ms)
                total_add(latency)

                if observing:
                    record((start, site, served_site, hit, dns_ms, latency,
                            wireless_ms, resolver_ms, interruption,
                            fetch_ms, origin_ms))
                # Think time advances the session clock; the diurnal
                # multiplier is per-session (sessions are minutes long,
                # buckets are hours), so the clock only gates overflow.
                start += think_time(rng)
            if observing:
                observer.session(index, ue_sessions, ue.home_site, records)
                records.clear()
        if ue_sessions:
            active += 1
            sessions += ue_sessions

    if observing:
        observer.close(queries=queries, hits=hits, localized=localized,
                       sessions=sessions, handovers=handovers)

    return DistrictStats(
        queries=queries, sessions=sessions, active_ues=active, hits=hits,
        localized=localized, handovers=handovers, cache_load=cache_load,
        dns=dns_hist, total=total_hist)


def district_seed(base: int, deployment: str, shard: int) -> int:
    """The population seed for ``shard`` of ``deployment``'s sweep."""
    return derive_seed(base, "district", deployment, shard)
