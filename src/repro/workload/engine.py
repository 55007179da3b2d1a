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

import hashlib
import random
from array import array
from bisect import bisect_left
from math import exp, inf, log, log10
from random import NV_MAGICCONST
from typing import Dict, List, MutableSequence, NamedTuple, Optional, cast

from repro import telemetry as _telemetry
from repro.cdn.allocation import (ConsistentAllocator, HashRing,
                                  check_allocation)
from repro.cdn.content import ZipfRankStream
from repro.measure.histogram import (BINS_PER_DECADE, LOW_MS,
                                     LatencyHistogram)
from repro.runtime.spec import derive_seed
from repro.workload.arrivals import (SECONDS_PER_DAY, SECONDS_PER_HOUR,
                                     DiurnalProfile, NhppArrivals)
from repro.workload.caches import RankLru
from repro.workload.deployment import (INTER_SITE_LEG, INTRA_SITE_LEG,
                                       ORIGIN_LEG, ORIGIN_SERVICE_MS,
                                       DeploymentModel)
from repro.workload.mobility import HANDOVER_INTERRUPTION_MS, MobilityModel
from repro.workload.observer import QueryRecord, _DistrictObserver
from repro.workload.sessions import SessionModel

#: Content ranks whose cache selection a district remembers per site.
#: Zipf traffic asks for the head over and over; the tail goes to the
#: ring every time, so memory does not grow with the catalog.
HEAD = 8192

#: A content rank's ring key, ``%`` the rank: the bytes of
#: ``f"obj{rank:07d}.pop.mycdn.ciab.test"``.
CONTENT_KEY = b"obj%07d.pop.mycdn.ciab.test"


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
    """The district's cache-selection geometry, shared with the
    production router.

    Each site's ring carries the flat cache indices of that site's
    caches, named ``site{s}-cache{c}`` for hashing, so a pick is the
    index the engine wants, with no name to look up.

    **Invariant:** ring and allocator membership never changes inside a
    district, and nothing passes an eligibility predicate, so a
    selection is a pure function of (site, content key) under
    ``content`` and sticky per (site, client key) under ``client`` /
    ``client-bounded``.  That is what lets a selection be remembered:
    under ``content`` the engine bisects :attr:`ring_tables` in-line,
    once per (site, head rank), and keeps the answer in
    :attr:`head_tables`; under the client policies it calls
    :meth:`select` once per (UE, site).
    """

    def __init__(self, config: DistrictConfig) -> None:
        check_allocation(config.allocation)
        per_site = config.caches_per_site
        names = [f"site{flat // per_site}-cache{flat % per_site}"
                 for flat in range(config.sites * per_site)]
        self._rings: List[HashRing] = [
            HashRing(range(site * per_site, (site + 1) * per_site),
                     name_of=names.__getitem__)
            for site in range(config.sites)]
        #: ``client-bounded``: one allocator per site over the cache
        #: names, and the flat index of each name.
        self._allocators: Optional[List[ConsistentAllocator]] = None
        self._index: Dict[str, int] = {}
        if config.allocation == "client-bounded":
            self._allocators = [
                ConsistentAllocator(names[site * per_site:
                                          (site + 1) * per_site])
                for site in range(config.sites)]
            self._index = {name: flat for flat, name in enumerate(names)}
        #: Ranks ``1..head`` have a slot in every site's table.
        self.head = min(config.catalog_size, HEAD)
        # The narrowest unsigned cell that holds every flat index + 1.
        caches = len(names)
        cell = "B" if caches < 255 else "H" if caches < 65535 else "L"
        by_content = config.allocation == "content"
        #: ``content`` only: per site, ``table[rank]`` is the flat cache
        #: index + 1 that serves ``rank`` from that site, or 0 until
        #: first asked.  O(sites × HEAD) whatever the catalog size.
        self.head_tables: List[MutableSequence[int]] = [
            array(cell, [0]) * (self.head + 1)
            for _ in range(config.sites)] if by_content else []
        #: Per site, the ring's ``(points, owners)``
        #: (:meth:`HashRing.lookup_table`): ``owners[bisect_left(points,
        #: point)]`` is the flat cache index at ring coordinate ``point``.
        self.ring_tables = [ring.lookup_table() for ring in self._rings]
        #: ``content`` only: ``head_points[rank]`` is head rank ``rank``'s
        #: ring coordinate, hashed once per district whatever the site,
        #: or 0 until first asked.
        self.head_points: MutableSequence[int] = (
            array("Q", [0]) * (self.head + 1) if by_content else array("Q"))

    def select(self, site: int, client_key: str) -> int:
        """The flat cache index serving ``client_key`` from ``site``
        under ``client`` or ``client-bounded``."""
        if self._allocators is not None:
            return self._index[self._allocators[site].assign(client_key)]
        chosen = self._rings[site].pick(client_key)
        if chosen is None:  # pragma: no cover - rings are never empty
            raise RuntimeError("empty cache ring")
        return cast(int, chosen)


def run_district(config: DistrictConfig, model: DeploymentModel,
                 seed: int, scope: str = "") -> DistrictStats:
    """Simulate one district and return its streaming aggregates.

    ``seed`` roots the district's population; every UE's behaviour is a
    pure function of ``derive_seed(seed, "ue", index)``, so the result
    is independent of process placement.  ``scope`` names this district
    in observability output (exemplar keys, span sampling salt) — pass
    something unique per trial (the population experiment uses
    ``"<deployment>/d<district>"``); it defaults to the deployment key.

    Every draw is made in-line, in the order and with the floats of the
    call it replaces; tests/workload/test_kernel_equivalence.py pins
    each one and runs this loop against the one written with the calls
    (tests/workload/reference.py holds those calls).
    """
    if config.ues < 1:
        raise ValueError(f"population needs >= 1 UE, got {config.ues}")
    if config.sites < 1:
        raise ValueError(f"population needs >= 1 site, got {config.sites}")
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
    resolves_locally = model.localized
    by_content = config.allocation == "content"
    select = router.select
    head = router.head
    head_tables = router.head_tables
    head_points = router.head_points
    ring_tables = router.ring_tables
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    # A UE's stream: the one Random below, re-seeded with the UE's seed.
    # Random.seed(s) leaves the state Random(s) starts in, gauss_next
    # included, and the bound methods follow the re-seeded state.
    rng = random.Random(seed)
    reseed = rng.seed
    rand = rng.random
    getrandbits = rng.getrandbits
    # A UE's seed and home site are derive_seed(seed, "ue" / "home",
    # index): sha256 of ``f"{seed}:ue:{index}"``, first 8 bytes.  Each
    # prefix is hashed once here and copied per UE.
    ue_prefix = sha256(f"{seed}:ue:".encode())
    home_prefix = sha256(f"{seed}:home:".encode())
    sites = config.sites
    # Session arrivals: NhppArrivals' Lewis-Shedler thinning, candidates
    # ``expovariate(rate_max)`` apart, each kept when ``rand() *
    # rate_max`` is at most the rate of the candidate's hour of the day.
    rate_max = arrivals.rate_max
    hour_rates = [arrivals.scale * level for level in profile.hourly]
    start_s = config.start_s
    end_s = start_s + config.duration_s
    # Requests per session: 1 + the failures before the first draw below
    # ``session_model.p`` (geometric).
    request_p = session_model.p
    # Placement: a session starts away from home with move_p, and hands
    # over mid-session with handover_p; the other site is
    # ``randrange(sites - 1)`` past the current one, and randrange(n) is
    # Random._randbelow's ``getrandbits(n.bit_length())`` until below n.
    # One site draws nothing.
    move_p = mobility.move_probability
    handover_p = mobility.handover_probability
    others = sites - 1
    other_bits = others.bit_length()
    # Zipf ranks: ZipfRankStream.next_rank's rejection loop over each
    # UE's ``rand``, from one stream's constants per district (the
    # stream's own rng, the Random above, is only ever re-seeded).  A
    # head rank's acceptance ratio is computed once, by next_rank's
    # expression; 0.0 is "not yet".
    zipf = ZipfRankStream(config.catalog_size, rng,
                          exponent=config.zipf_exponent)
    zipf_n = zipf.n
    many_ranks = zipf_n > 1
    logarithmic = zipf.logarithmic
    one_minus_s = zipf.one_minus_s
    inverse_power = 0.0 if logarithmic else 1.0 / one_minus_s
    minus_s = -zipf.exponent
    zipf_total = zipf.total
    cell_one = zipf.cell_one
    ratios = array("d", [0.0]) * (head + 1)
    # A DNS leg is ``rng.choice(samples)``; the loop below draws the
    # index the way ``Random.choice`` does (``getrandbits(k)`` until it
    # is below ``n``) without the two frames.
    wireless_samples = model.wireless.samples
    wireless_n = len(wireless_samples)
    wireless_bits = wireless_n.bit_length()
    resolver_samples = model.resolver.samples
    resolver_n = len(resolver_samples)
    resolver_bits = resolver_n.bit_length()
    # Round trips to the cache and the origin: request + response legs.
    # The intra-site leg is a Constant, so it draws nothing.  A LogNormal
    # leg is ``shift + exp(mu + z * sigma)`` with ``z`` from the
    # Kinderman-Monahan loop ``Random.normalvariate`` runs.
    intra_fetch_ms = 2.0 * INTRA_SITE_LEG.value
    inter_mu = INTER_SITE_LEG.mu
    inter_sigma = INTER_SITE_LEG.sigma
    inter_shift = INTER_SITE_LEG.shift
    origin_mu = ORIGIN_LEG.mu
    origin_sigma = ORIGIN_LEG.sigma
    origin_shift = ORIGIN_LEG.shift
    # Think time, seconds between a session's requests, is
    # ``rng.expovariate(1 / mean)``, written out.
    think_rate = 1.0 / session_model.mean_think_s
    # Both histograms bin in-line (LatencyHistogram.add's arithmetic);
    # their exact fields run in locals and are written back at the end.
    dns_counts = dns_hist.counts
    total_counts = total_hist.counts
    top_bin = LatencyHistogram.size - 1
    dns_sum = total_sum = 0.0
    dns_min = total_min = inf
    dns_max = total_max = -inf

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

    if config.duration_s < 0:
        raise ValueError(f"negative duration {config.duration_s}")
    for index in range(config.ues):
        digits = str(index).encode()
        hashed = ue_prefix.copy()
        hashed.update(digits)
        reseed(from_bytes(hashed.digest()[:8], "big"))
        hashed = home_prefix.copy()
        hashed.update(digits)
        home_site = from_bytes(hashed.digest()[:8], "big") % sites
        #: ``client`` / ``client-bounded``: this UE's cache per site,
        #: asked for on first touch (see the _Router invariant).
        ue_caches = [-1] * sites
        ue_sessions = 0
        arrival = start_s
        while True:
            arrival += -log(1.0 - rand()) / rate_max
            if arrival >= end_s:
                break
            if rand() * rate_max > hour_rates[
                    int((arrival % SECONDS_PER_DAY) // SECONDS_PER_HOUR)]:
                continue
            requests = 1
            while rand() >= request_p:
                requests += 1
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
            start = arrival
            ue_sessions += 1
            for ordinal in range(requests):
                interruption = 0.0
                if ordinal == handover_at:
                    site = handover_site
                    handovers += 1
                    interruption = HANDOVER_INTERRUPTION_MS

                # The s = 1 (logarithmic) envelope is each conditional
                # expression's first arm.
                rank = 1
                while many_ranks:
                    k = int(exp(rand() * zipf_total) if logarithmic
                            else (1.0 + rand() * zipf_total * one_minus_s)
                            ** inverse_power)
                    k = 1 if k < 1 else k if k <= zipf_n else zipf_n
                    ratio = ratios[k] if k <= head else 0.0
                    if not ratio:
                        cell = (log(float(k + 1)) - log(float(k))
                                if logarithmic else
                                (float(k + 1) ** one_minus_s - 1.0)
                                / one_minus_s
                                - (float(k) ** one_minus_s - 1.0)
                                / one_minus_s)
                        ratio = (k ** minus_s) * cell_one / cell
                        if k <= head:
                            ratios[k] = ratio
                    if rand() <= ratio:
                        rank = k
                        break

                if not resolves_locally:
                    cache_index = anchor_cache
                elif by_content:
                    # HashRing.pick on the content key, bisected in-line.
                    if rank <= head:
                        table = head_tables[site]
                        cache_index = table[rank] - 1
                        if cache_index < 0:
                            point = head_points[rank]
                            if not point:
                                point = head_points[rank] = from_bytes(
                                    sha256(CONTENT_KEY % rank).digest()[:8],
                                    "big")
                            points, owners = ring_tables[site]
                            cache_index = owners[bisect_left(points, point)]
                            table[rank] = cache_index + 1
                    else:
                        points, owners = ring_tables[site]
                        cache_index = owners[bisect_left(points, from_bytes(
                            sha256(CONTENT_KEY % rank).digest()[:8], "big"))]
                else:
                    cache_index = ue_caches[site]
                    if cache_index < 0:
                        # The client key: the UE's synthetic address.
                        cache_index = ue_caches[site] = select(
                            site, f"10.{64 + (index >> 16) % 64}."
                            f"{(index >> 8) & 0xFF}.{index & 0xFF}")
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
                    while True:
                        u1 = rand()
                        u2 = 1.0 - rand()
                        z = NV_MAGICCONST * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -log(u2):
                            break
                    fetch_ms = 2.0 * (inter_shift
                                      + exp(inter_mu + z * inter_sigma))
                latency = dns_ms + fetch_ms
                if hit:
                    hits += 1
                    origin_ms = 0.0
                else:
                    while True:
                        u1 = rand()
                        u2 = 1.0 - rand()
                        z = NV_MAGICCONST * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -log(u2):
                            break
                    origin_ms = (2.0 * (origin_shift
                                        + exp(origin_mu + z * origin_sigma))
                                 + ORIGIN_SERVICE_MS)
                    latency += origin_ms
                queries += 1

                at = (int(log10(dns_ms / LOW_MS) * BINS_PER_DECADE)
                      if dns_ms > LOW_MS else 0)
                dns_counts[at if at < top_bin else top_bin] += 1
                dns_sum += dns_ms
                if dns_ms < dns_min:
                    dns_min = dns_ms
                if dns_ms > dns_max:
                    dns_max = dns_ms
                at = (int(log10(latency / LOW_MS) * BINS_PER_DECADE)
                      if latency > LOW_MS else 0)
                total_counts[at if at < top_bin else top_bin] += 1
                total_sum += latency
                if latency < total_min:
                    total_min = latency
                if latency > total_max:
                    total_max = latency

                if observing:
                    record((start, site, served_site, hit, dns_ms, latency,
                            wireless_ms, resolver_ms, interruption,
                            fetch_ms, origin_ms))
                # Think time advances the session clock; the diurnal
                # multiplier is per-session (sessions are minutes long,
                # buckets are hours), so the clock only gates overflow.
                start += -log(1.0 - rand()) / think_rate
            if observing:
                observer.session(index, ue_sessions, home_site, records)
                records.clear()
        if ue_sessions:
            active += 1
            sessions += ue_sessions

    dns_hist.count = total_hist.count = queries
    dns_hist.total = dns_sum
    dns_hist.minimum = dns_min
    dns_hist.maximum = dns_max
    total_hist.total = total_sum
    total_hist.minimum = total_min
    total_hist.maximum = total_max

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
