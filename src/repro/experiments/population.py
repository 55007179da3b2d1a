"""Population-scale Figure 5: city traffic against the six deployments.

The paper measures each deployment with tens of queries from one UE;
this artifact drives the same deployments with a synthesized city —
10^4–10^6+ UEs, Zipf content popularity, diurnal session arrivals,
inter-site mobility — and reports what only shows up at scale: cache
localization, aggregate hit rate, and tail latency (p50/p99/p99.9).

Structure: each deployment's population splits into ``districts``
independent slices (the sharding unit; see
:mod:`repro.workload.engine`), one trial per (deployment, district).
Every trial first derives the deployment's calibrated latency model
from a full-fidelity testbed run whose seed is shard-independent, so
all districts of a deployment — and the serial and ``--jobs N`` paths —
agree exactly.  Aggregates are streaming histograms plus exact
counters; no per-query records exist anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence

from repro.cdn.allocation import check_allocation
from repro.core.deployments import (DEPLOYMENT_KEYS, DEPLOYMENT_LABELS,
                                    ENVELOPE_DEPLOYMENTS, MEC_DEPLOYMENTS)
from repro.experiments.report import format_table
from repro.measure.histogram import HistogramSummary, LatencyHistogram
from repro.runtime import Claim, Experiment, Param
from repro.runtime.spec import TrialSpec
from repro.workload.arrivals import SECONDS_PER_HOUR, DiurnalProfile
from repro.workload.deployment import calibrate, is_localized
from repro.workload.engine import (DistrictConfig, DistrictStats,
                                   district_seed, merge_stats, run_district)

#: Default total queries targeted per deployment (all districts).
DEFAULT_TARGET_QUERIES = 20_000

#: Fixed per-run shape of the simulated city window.
SIMULATED_HOURS = 1.0
SESSIONS_PER_UE_HOUR = 1.0
MEAN_REQUESTS = 8.0
MEAN_THINK_S = 4.0
MOVE_PROBABILITY = 0.15
HANDOVER_PROBABILITY = 0.05
#: The window starts at 18:00 simulated — on the diurnal evening ramp.
START_S = 18 * 3600.0


class PopulationRow(NamedTuple):
    """One deployment's merged city-scale aggregates."""

    key: str
    label: str
    queries: int
    sessions: int
    active_ues: int
    localization: float
    hit_rate: float
    handovers: int
    load_imbalance: float
    dns: HistogramSummary
    total: HistogramSummary


class PopulationResult(NamedTuple):
    rows: List[PopulationRow]
    target_queries: int
    districts: int
    sites: int
    allocation: str
    catalog: int

    def row(self, key: str) -> PopulationRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def render(self) -> str:
        """The printed population table (one row per deployment)."""
        table_rows = []
        for row in self.rows:
            table_rows.append((
                row.label,
                f"{row.queries}",
                f"{100 * row.localization:.1f}%",
                f"{100 * row.hit_rate:.1f}%",
                f"{row.dns.p50:.1f}",
                f"{row.dns.p99:.1f}",
                f"{row.total.p50:.1f}",
                f"{row.total.p99:.1f}",
                f"{row.total.p999:.1f}",
                f"{row.load_imbalance:.2f}"))
        return format_table(
            ["Deployment", "queries", "local", "hit",
             "dns p50", "dns p99", "p50", "p99", "p99.9", "imbal"],
            table_rows,
            title=(f"Population scale: {self.target_queries} queries/"
                   f"deployment target, {self.sites} sites, "
                   f"{self.districts} districts, "
                   f"allocation={self.allocation}, "
                   f"catalog={self.catalog} (latencies in ms)"))


class _ShardPayload(NamedTuple):
    """One trial's output: which deployment it belongs to, plus stats."""

    key: str
    district: int
    stats: DistrictStats


class PopulationExperiment(Experiment):
    """One trial per (deployment, district)."""

    name = "population"
    title = "Population-scale workload across the Figure 5 deployments"
    params = (
        Param("target_queries", int, DEFAULT_TARGET_QUERIES,
              "approximate queries per deployment (all districts)"),
        Param("districts", int, 2, "independent population shards"),
        Param("sites", int, 4, "MEC sites per district"),
        Param("cache_capacity", int, 2000, "objects per cache"),
        Param("catalog", int, 100_000, "synthetic catalog size"),
        Param("allocation", str, "content",
              "cache allocation: content | client | client-bounded"),
        Param("deployment", str, "all",
              "one deployment key, or 'all' for the Figure 5 six"),
        Param("seed", int, 42, "base RNG seed"),
        Param("zipf", float, 0.9, "content popularity exponent",
              cli=False),
        Param("caches_per_site", int, 2, "caches per MEC site",
              cli=False),
    )

    # -- plan ----------------------------------------------------------------

    @staticmethod
    def _keys(params: Mapping[str, object]) -> List[str]:
        deployment = str(params["deployment"])
        if deployment == "all":
            return list(DEPLOYMENT_KEYS)
        if deployment not in DEPLOYMENT_KEYS:
            raise ValueError(f"unknown deployment {deployment!r}; "
                             f"expected 'all' or one of {DEPLOYMENT_KEYS}")
        return [deployment]

    @staticmethod
    def _window_activity(profile: DiurnalProfile, start_s: float,
                         duration_s: float) -> float:
        """Average diurnal multiplier over the window, relative to the
        day mean — the factor by which the simulated window's arrival
        rate exceeds (or trails) the day-average rate."""
        total = 0.0
        t = start_s
        remaining = duration_s
        while remaining > 1e-9:
            hour_end = (t // SECONDS_PER_HOUR + 1) * SECONDS_PER_HOUR
            step = min(remaining, hour_end - t)
            total += profile.multiplier(t) * step
            t += step
            remaining -= step
        return (total / duration_s) / profile.mean

    @classmethod
    def _config(cls, params: Mapping[str, object]) -> DistrictConfig:
        districts = int(params["districts"])
        if districts < 1:
            raise ValueError(f"need >= 1 district, got {districts}")
        allocation = str(params["allocation"])
        check_allocation(allocation)
        target = int(params["target_queries"])
        # The window sits on the evening ramp, so each UE contributes
        # more sessions than the day-average rate suggests; fold the
        # window's activity factor in so ``target_queries`` stays honest.
        activity = cls._window_activity(
            DiurnalProfile(), START_S, SIMULATED_HOURS * 3600.0)
        expected_per_ue = (SESSIONS_PER_UE_HOUR * SIMULATED_HOURS
                           * activity * MEAN_REQUESTS)
        ues = max(1, round(target / districts / expected_per_ue))
        return DistrictConfig(
            ues=ues,
            sites=int(params["sites"]),
            caches_per_site=int(params["caches_per_site"]),
            cache_capacity=int(params["cache_capacity"]),
            catalog_size=int(params["catalog"]),
            zipf_exponent=float(params["zipf"]),
            duration_s=SIMULATED_HOURS * 3600.0,
            sessions_per_ue_hour=SESSIONS_PER_UE_HOUR,
            mean_requests=MEAN_REQUESTS,
            mean_think_s=MEAN_THINK_S,
            move_probability=MOVE_PROBABILITY,
            handover_probability=HANDOVER_PROBABILITY,
            allocation=allocation,
            start_s=START_S)

    def trials(self, params: Mapping[str, object]) -> List[TrialSpec]:
        self._config(params)  # validate early, in the planner
        districts = int(params["districts"])
        specs: List[TrialSpec] = []
        index = 0
        for key in self._keys(params):
            for district in range(districts):
                specs.append(self.spec(
                    index, seed=int(params["seed"]), key=key,
                    district=district,
                    target_queries=int(params["target_queries"]),
                    districts=districts,
                    sites=int(params["sites"]),
                    cache_capacity=int(params["cache_capacity"]),
                    catalog=int(params["catalog"]),
                    allocation=str(params["allocation"]),
                    zipf=float(params["zipf"]),
                    caches_per_site=int(params["caches_per_site"])))
                index += 1
        return specs

    # -- execution -----------------------------------------------------------

    def run_trial(self, spec: TrialSpec) -> _ShardPayload:
        cell = spec.cell_dict()
        cell_params: Dict[str, object] = {
            name: cell[name]
            for name in ("target_queries", "districts", "sites",
                         "cache_capacity", "catalog", "allocation",
                         "zipf", "caches_per_site")}
        cell_params["deployment"] = cell["key"]
        key = str(cell["key"])
        district = int(str(cell["district"]))
        config = self._config(cell_params)
        model = calibrate(key, spec.seed)
        stats = run_district(config, model,
                             district_seed(spec.seed, key, district),
                             scope=f"{key}/d{district}")
        return _ShardPayload(key=key, district=district, stats=stats)

    def merge(self, params: Mapping[str, object],
              payloads: Sequence[object]) -> PopulationResult:
        grouped: Dict[str, List[DistrictStats]] = {}
        for payload in payloads:
            assert isinstance(payload, _ShardPayload)
            grouped.setdefault(payload.key, []).append(payload.stats)
        rows: List[PopulationRow] = []
        for key in self._keys(params):
            stats = merge_stats(grouped.get(key, []))
            rows.append(PopulationRow(
                key=key,
                label=DEPLOYMENT_LABELS[key],
                queries=stats.queries,
                sessions=stats.sessions,
                active_ues=stats.active_ues,
                localization=stats.localization,
                hit_rate=stats.hit_rate,
                handovers=stats.handovers,
                load_imbalance=stats.load_imbalance(),
                dns=stats.dns.summary(),
                total=stats.total.summary()))
        return PopulationResult(
            rows=rows,
            target_queries=int(params["target_queries"]),
            districts=int(params["districts"]),
            sites=int(params["sites"]),
            allocation=str(params["allocation"]),
            catalog=int(params["catalog"]))

    def claims(self, result: PopulationResult) -> List[Claim]:
        """Statistical claims only for rows of >= ``SHAPE_MIN_QUERIES``."""
        rows = [Claim(f"{row.key} queries", row.queries, ">", 0)
                for row in result.rows]
        dns_p50 = {row.key: row.dns.p50 for row in result.rows if row.queries}
        for row in (row for row in result.rows if row.queries):
            # A reported p50 is a bin midpoint; the 20 ms line is a claim
            # about the true median, so it fails only when the whole
            # covering bin sits on the wrong side.
            floor, ceiling = LatencyHistogram.bin_bounds(row.dns.p50)
            key, total = row.key, row.total
            rows += [Claim(f"{key} total p50 ms", total.p50, "<=", total.p99),
                     Claim(f"{key} total p99 ms", total.p99, "<=", total.p999),
                     Claim(f"{key} dns p50 bin floor ms", floor, "<", 20)
                     if key in ENVELOPE_DEPLOYMENTS
                     else Claim(f"{key} dns p50 bin ceiling ms", ceiling, ">",
                                20)]
            if is_localized(row.key):
                rows.append(Claim(f"{row.key} localization",
                                  row.localization, ">=", 0.99))
            elif result.sites > 1 and row.queries >= SHAPE_MIN_QUERIES:
                # A client-blind resolver pins the city to one anchor site:
                # localization collapses toward 1/sites.
                rows.append(Claim(f"{row.key} localization",
                                  row.localization, "<=", 0.5))
        present = [key for key in MEC_DEPLOYMENTS if key in dns_p50]
        rows += [Claim(f"{earlier} dns p50 ms below {later}", dns_p50[earlier],
                       "<", dns_p50[later])
                 for earlier, later in zip(present, present[1:])]

        # Load balance is where client-blind resolution falls apart at
        # city scale: the anchor cache absorbs everything, so imbalance
        # (max/mean over caches) approaches the cache count, while any
        # consistent-hash policy keeps the localized rows near flat.  And
        # caches must do real work: some hits (Zipf head repeats) and some
        # misses (cold starts at minimum).
        sized = [row for row in result.rows
                 if row.queries >= SHAPE_MIN_QUERIES]
        localized = [row.load_imbalance for row in sized
                     if is_localized(row.key)]
        blind = [row.load_imbalance for row in sized
                 if not is_localized(row.key)]
        if localized and blind:
            rows.append(Claim(
                "best anchor-pinned imbalance over 2x worst localized",
                min(blind), ">", 2.0 * max(localized)))
        for row in sized:
            rows += [Claim(f"{row.key} hit rate, floor", row.hit_rate, ">", 0),
                     Claim(f"{row.key} hit rate, ceiling", row.hit_rate, "<",
                           1)]
            if is_localized(row.key):
                rows.append(Claim(f"{row.key} cache load imbalance",
                                  row.load_imbalance, "<=", 3.0))
        return rows


EXPERIMENT = PopulationExperiment()


#: Minimum merged queries per row before the statistical claims below
#: are asserted; tiny smoke runs still check the structural ones.
SHAPE_MIN_QUERIES = 2_000
