"""Churn experiment: resolution quality while the control plane moves.

Figure 5's testbeds are frozen; this extension measures them while the
cache fleet churns underneath (scale-up, a full rolling restart, a
scale-down — :func:`repro.control.churn.default_schedule`) and the zone
data chases the cluster through the NOTIFY/IXFR control plane of
:mod:`repro.control`.  A UE handover between cells happens mid-session
in every cell, so the handover-vs-staleness attribution is always live.

Three quantities per cell:

* **staleness window** — update to the last answer still carrying a
  removed endpoint;
* **mislocalization rate** — answers pointing at endpoints no longer
  live (overall, and inside propagation windows);
* the **serve-stale overlap** — RFC 8767 stale answers served while a
  zone version was still propagating (the CoreDNS cache plugin's
  ``stale_served_during_churn`` counter).

Scenarios compose churn with the PR-1 fault kinds:

* ``churn-only`` — every Figure 5 deployment, no faults.  The paper's
  integrated design propagates in ~0.1 s; warmed public resolvers (the
  "A record never expires" deployments) never learn and mislocalize
  for the rest of the run;
* ``cdns-crash`` — the C-DNS **and** the CDN origin crash through the
  rollout.  The resilient stack answers from RFC 8767 stale cache
  entries while the new zone version cannot propagate — the measured
  serve-stale × propagation-delay interaction;
* ``mec-partition`` — the cluster (including the zone secondary) is
  cut off across two updates.  With the journal bounded at depth 1 the
  secondary's serial ages out and recovery is a full AXFR, not a diff;
* ``origin-brownout`` — the origin is up but pathologically slow, so
  propagation (and only propagation) degrades: availability holds
  while mislocalization soars.

One fault cell is replayed twice with the same seed; its digests must
match byte-for-byte, and serial and sharded runs of the whole grid
produce identical results.
"""

from __future__ import annotations

from typing import Dict, Generator, List, NamedTuple, Tuple

from repro.control import ControlPlane, default_schedule
from repro.control.plane import PRIMARY_HOST
from repro.core.deployments import (DEPLOYMENT_KEYS, WARMED_DEPLOYMENTS,
                                    ResilienceConfig, Testbed, build_testbed)
from repro.errors import QueryTimeout, WireFormatError
from repro.experiments.report import format_table
from repro.experiments.resilience import (DEADLINE_MS, MODES, SPACING_MS,
                                          WARMUP_QUERIES, client_stub,
                                          cluster_host_names, replay_claims)
from repro.faults import FaultPlan, inject
from repro.measure.stats import percentile
from repro.mobile.handoff import HandoffController
from repro.runtime import Claim, Experiment, Param

#: Measured lookups per cell (after warmup).
DEFAULT_QUERIES = 40

#: Journal depth for the churn control plane: deliberately 1, so any
#: fault window spanning two updates forces the AXFR fallback path.
CONTROL_JOURNAL_DEPTH = 1

#: Mid-session handover (between the rollout and the scale-down).
HANDOFF_AT_MS = 3000.0

#: Fault windows, composed with the churn schedule.
FAULT_AT_MS = 2000.0
CRASH_DURATION_MS = 2500.0
PARTITION_DURATION_MS = 5000.0
BROWNOUT_AT_MS = 1000.0
BROWNOUT_SLOW_MS = 1500.0
BROWNOUT_DURATION_MS = 6000.0

FAULT_SCENARIOS = ("cdns-crash", "mec-partition", "origin-brownout")
FAULT_DEPLOYMENT = "mec-ldns-mec-cdns"


class ChurnRow(NamedTuple):
    """One (scenario, deployment, mode) cell of the churn grid."""

    scenario: str
    deployment: str
    mode: str
    queries: int
    answered: int
    availability: float          # answered within DEADLINE_MS / queries
    p50_ms: float
    p95_ms: float
    updates: int                 # registry versions published
    applied: int                 # versions that reached the router view
    prop_delay_max_ms: float     # slowest update-to-applied propagation
    max_staleness_ms: float      # widest update staleness window
    mean_staleness_ms: float
    misloc_rate: float           # mislocalized / answered, whole run
    lookups_in_window: int       # lookups inside propagation windows
    mislocalized_in_window: int
    stale_during_churn: int      # RFC 8767 stale served inside windows
    axfr_fallbacks: int          # IXFRs answered as full AXFR (aged out)
    handoffs: int
    post_handoff_lookups: int
    mislocalized_after_handoff: int


class ChurnResult(NamedTuple):
    """The churn grid plus its determinism evidence."""

    rows: List[ChurnRow]
    #: "scenario/deployment/mode" -> fault + churn + propagation lines.
    timelines: Dict[str, List[str]]
    #: Replayed cell: check name -> (first digest, second digest).
    replays: Dict[str, Tuple[str, str]]
    queries: int

    def row(self, scenario: str, deployment: str, mode: str) -> ChurnRow:
        """The unique cell for (scenario, deployment, mode)."""
        for row in self.rows:
            if (row.scenario, row.deployment, row.mode) == (
                    scenario, deployment, mode):
                return row
        raise KeyError(f"no cell {scenario}/{deployment}/{mode}")

    def render(self) -> str:
        """The churn grid as an aligned text table."""
        body = [[row.scenario, row.deployment, row.mode,
                 f"{row.availability:.2f}",
                 f"{row.p50_ms:.1f}", f"{row.p95_ms:.1f}",
                 f"{row.misloc_rate:.2f}",
                 f"{row.max_staleness_ms:.0f}",
                 f"{row.prop_delay_max_ms:.0f}",
                 str(row.stale_during_churn), str(row.axfr_fallbacks),
                 f"{row.mislocalized_after_handoff}"
                 f"/{row.post_handoff_lookups}"]
                for row in self.rows]
        table = format_table(
            ["scenario", "deployment", "mode", "avail", "p50 ms",
             "p95 ms", "misloc", "stale ms", "prop ms", "rfc8767",
             "axfr-fb", "ho-mis"],
            body,
            title=f"Resolution under control-plane churn "
                  f"({self.queries} queries/cell, deadline "
                  f"{DEADLINE_MS:.0f} ms)")
        lines = [table, "", "event timelines:"]
        for key, timeline in sorted(self.timelines.items()):
            lines.append(f"  {key}:")
            lines.extend(f"    {event}" for event in timeline)
        return "\n".join(lines)


def _fault_plan(scenario: str, testbed: Testbed,
                plane: ControlPlane) -> FaultPlan:
    plan = FaultPlan()
    if scenario == "churn-only":
        return plan
    if scenario == "cdns-crash":
        plan.crash_host(testbed.cdns_host, FAULT_AT_MS, CRASH_DURATION_MS)
        plan.crash_host(PRIMARY_HOST, FAULT_AT_MS, CRASH_DURATION_MS)
        return plan
    if scenario == "mec-partition":
        # The MEC cluster plus the zone secondary: the partition group.
        plan.partition(sorted(cluster_host_names(testbed)
                              + [plane.secondary_host_name]),
                       FAULT_AT_MS, PARTITION_DURATION_MS)
        return plan
    if scenario == "origin-brownout":
        plan.brownout_host(PRIMARY_HOST, BROWNOUT_AT_MS,
                           BROWNOUT_SLOW_MS, BROWNOUT_DURATION_MS)
        return plan
    raise ValueError(f"unknown scenario {scenario!r}")


def _churn_cell(scenario: str, deployment: str, mode: str, queries: int,
                seed: int) -> Tuple[ChurnRow, List[str], str]:
    """Build, churn, injure, hand over, and measure one deployment."""
    resilience = ResilienceConfig() if mode == "resilient" else None
    testbed = build_testbed(deployment, seed=seed, resilience=resilience)
    plane = ControlPlane(testbed, journal_depth=CONTROL_JOURNAL_DEPTH)
    plane.add_churn(default_schedule())
    injector = inject(testbed.network, _fault_plan(scenario, testbed,
                                                   plane))
    target_enb = testbed.epc.add_base_station("enb-2", "10.40.1.2")
    controller = HandoffController(testbed.network)
    sim = testbed.sim
    sim.call_at(HANDOFF_AT_MS,
                lambda: controller.handoff(testbed.ue, target_enb))

    stub = client_stub(testbed, mode)
    lookups: List[Tuple[float, float, str, Tuple[str, ...], bool, bool]] \
        = []

    def driver() -> Generator:
        for index in range(WARMUP_QUERIES + queries):
            started = sim.now
            try:
                result = yield from stub.query(testbed.query_name)
            except (QueryTimeout, WireFormatError):
                latency, status = sim.now - started, "TIMEOUT"
                addresses: Tuple[str, ...] = ()
                stale = False
            else:
                latency, status = result.query_time_ms, result.status
                addresses = tuple(result.addresses)
                stale = result.stale
            if index >= WARMUP_QUERIES:
                mislocalized = plane.monitor.note_answer(
                    sim.now, addresses, stale)
                if controller.handoffs:
                    controller.note_post_handoff_lookup(testbed.ue,
                                                        mislocalized)
                lookups.append((started, latency, status, addresses,
                                stale, mislocalized))
            yield SPACING_MS

    sim.run_until_resolved(sim.spawn(driver()))

    monitor = plane.monitor
    usable = [entry for entry in lookups
              if entry[2] == "NOERROR" and entry[3]]
    within = [entry for entry in usable if entry[1] <= DEADLINE_MS]
    latencies = [entry[1] for entry in lookups]
    assert testbed.mec_site is not None
    cache_plugin = testbed.mec_site.ldns.cache_plugin
    delays = [record.delay_ms
              for record in plane.coordinator.records.values()
              if record.delay_ms is not None]
    row = ChurnRow(
        scenario=scenario, deployment=deployment, mode=mode,
        queries=len(lookups), answered=len(usable),
        availability=(len(within) / len(lookups) if lookups else 0.0),
        p50_ms=percentile(latencies, 50),
        p95_ms=percentile(latencies, 95),
        updates=len(plane.registry.updates),
        applied=len(delays),
        prop_delay_max_ms=max(delays) if delays else 0.0,
        max_staleness_ms=monitor.max_staleness_ms,
        mean_staleness_ms=monitor.mean_staleness_ms,
        misloc_rate=monitor.mislocalization_rate,
        lookups_in_window=monitor.lookups_in_window,
        mislocalized_in_window=monitor.mislocalized_in_window,
        stale_during_churn=(cache_plugin.stale_served_during_churn
                            if cache_plugin is not None else 0),
        axfr_fallbacks=plane.primary.ixfr_axfr_fallbacks,
        handoffs=controller.handoffs,
        post_handoff_lookups=controller.post_handoff_lookups,
        mislocalized_after_handoff=controller.mislocalized_after_handoff)
    timeline = list(injector.timeline) + plane.log()
    digest_lines = list(timeline)
    for started, latency, status, addresses, stale, mislocalized \
            in lookups:
        digest_lines.append(
            f"t={started:.6f} lat={latency:.6f} {status} "
            f"[{','.join(addresses)}] stale={stale} mis={mislocalized}")
    return row, timeline, "\n".join(digest_lines)


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------

class ChurnExperiment(Experiment):
    """The churn grid, one trial per (scenario, deployment, mode) cell.

    Every cell builds its own churned, faulted testbed from the base
    seed, so sharding cannot change any measured value; the replay
    cells rerun one fault cell twice and ``merge`` pairs their digests
    into the published determinism evidence.
    """

    name = "churn"
    title = "dynamic control plane: churn, handover, and faults"
    params = (Param("queries", int, DEFAULT_QUERIES,
                    "measured lookups per cell"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        queries = int(params["queries"])
        base = int(params["seed"])
        specs = []
        for deployment in DEPLOYMENT_KEYS:
            specs.append(self.spec(
                len(specs), seed=base, kind="deploy",
                deployment=deployment, queries=queries))
        for scenario in FAULT_SCENARIOS:
            for mode in MODES:
                specs.append(self.spec(
                    len(specs), seed=base, kind="fault",
                    scenario=scenario, mode=mode, queries=queries))
        for which in (1, 2):
            specs.append(self.spec(len(specs), seed=base, kind="replay",
                                   which=which, queries=queries))
        return specs

    def run_trial(self, spec):
        kind = str(spec.value("kind"))
        queries = int(spec.value("queries"))
        if kind == "deploy":
            deployment = str(spec.value("deployment"))
            row, timeline, _ = _churn_cell("churn-only", deployment,
                                           "resilient", queries,
                                           spec.seed)
            return ("deploy", deployment, row, timeline)
        if kind == "fault":
            scenario = str(spec.value("scenario"))
            mode = str(spec.value("mode"))
            row, timeline, _ = _churn_cell(scenario, FAULT_DEPLOYMENT,
                                           mode, queries, spec.seed)
            return ("fault", scenario, mode, row, timeline)
        _, _, digest = _churn_cell("cdns-crash", FAULT_DEPLOYMENT,
                                   "resilient", queries, spec.seed)
        return ("replay", int(spec.value("which")), digest)

    def merge(self, params, payloads):
        rows: List[ChurnRow] = []
        timelines: Dict[str, List[str]] = {}
        digests: Dict[int, str] = {}
        for payload in payloads:
            kind = payload[0]
            if kind == "deploy":
                _, deployment, row, timeline = payload
                rows.append(row)
                timelines[f"churn-only/{deployment}/resilient"] = timeline
            elif kind == "fault":
                _, scenario, mode, row, timeline = payload
                rows.append(row)
                timelines[f"{scenario}/{FAULT_DEPLOYMENT}/{mode}"] = \
                    timeline
            else:
                _, which, digest = payload
                digests[which] = digest
        replays = {f"cdns-crash/{FAULT_DEPLOYMENT}/resilient":
                   (digests[1], digests[2])}
        return ChurnResult(rows=rows, timelines=timelines,
                           replays=replays,
                           queries=int(params["queries"]))

    def claims(self, result: ChurnResult) -> List[Claim]:
        """The churn gradient, serve-stale x propagation, and determinism."""
        def cell(scenario: str, mode: str = "resilient",
                 deployment: str = FAULT_DEPLOYMENT) -> ChurnRow:
            return result.row(scenario, deployment, mode)
        # Clean NOTIFY/IXFR propagation applies every update within 1 s.
        integrated = cell("churn-only")
        rows = [Claim("integrated updates applied", integrated.applied, ">=",
                      integrated.updates),
                Claim("integrated propagation max ms",
                      integrated.prop_delay_max_ms, "<=", 1000.0)]
        for key in DEPLOYMENT_KEYS:
            row, at = cell("churn-only", deployment=key), f"churn-only {key}"
            rows += [Claim(f"{at} registry updates", row.updates, ">=", 3),
                     Claim(f"{at} handovers", row.handoffs, "==", 1),
                     Claim(f"{at} post-handoff lookups",
                           row.post_handoff_lookups, ">", 0)]
            if key in WARMED_DEPLOYMENTS:  # mislocalizes far more, longer
                rows += [Claim(f"{at} mislocalization rate", row.misloc_rate,
                               ">=", integrated.misloc_rate + 0.3),
                         Claim(f"{at} max staleness ms", row.max_staleness_ms,
                               ">=", 2000.0)]
        # cdns-crash: RFC 8767 stale answers inside the propagation window,
        # and none without serve-stale.  mec-partition: the depth-1 journal
        # forces an AXFR on recovery.  origin-brownout: a slow origin
        # stretches propagation, not lookups.
        rows += [Claim("resilient cdns-crash stale answers",
                       cell("cdns-crash").stale_during_churn, ">=", 1),
                 Claim("baseline cdns-crash stale answers",
                       cell("cdns-crash", "baseline").stale_during_churn,
                       "==", 0),
                 Claim("partition/baseline availability",
                       cell("mec-partition", "baseline").availability, "<",
                       0.95)]
        for mode in MODES:
            part = cell("mec-partition", mode)
            rows += [Claim(f"partition/{mode} AXFR fallbacks",
                           part.axfr_fallbacks, ">=", 1),
                     Claim(f"partition/{mode} propagation max ms",
                           part.prop_delay_max_ms, ">=", 1000.0),
                     Claim(f"brownout/{mode} availability",
                           cell("origin-brownout", mode).availability, ">=",
                           0.9)]
        staleness = cell("origin-brownout").max_staleness_ms
        return rows + [
            Claim("brownout/resilient max staleness ms", staleness, ">=",
                  1000.0),
            Claim("brownout/resilient max staleness ms over clean churn",
                  staleness, ">", integrated.max_staleness_ms),
        ] + replay_claims(result.replays, result.timelines,
                          (f"cdns-crash/{FAULT_DEPLOYMENT}/resilient",
                           f"mec-partition/{FAULT_DEPLOYMENT}/baseline"))


EXPERIMENT = ChurnExperiment()
