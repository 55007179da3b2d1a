"""Chaos grid: the deployments under faults, control-plane churn and handover.

Figure 5 measures the deployments on a healthy, frozen network.  §3 of
the paper argues the MEC-integrated design must also *survive* — "have
DNS requests ... be forwarded to L-DNS on timeout from MEC DNS" — and
must keep its answers local while the cache fleet moves underneath.
This extension measures both, one (scenario × deployment × mode) cell
at a time.  Each scenario is one row of :data:`SCENARIOS`: its fault
plan (:mod:`repro.faults`), and whether it runs the churn schedule
(scale-up, a full rolling restart, a scale-down —
:func:`repro.control.churn.default_schedule`) with the zone data chasing
the cluster through the NOTIFY/IXFR control plane of
:mod:`repro.control`, plus a mid-session UE handover between cells.

Churn scenarios, with the control plane live:

* ``churn-only`` — every Figure 5 deployment, no faults.  The paper's
  integrated design propagates in ~0.1 s; warmed public resolvers (the
  "A record never expires" deployments) never learn and mislocalize
  for the rest of the run;
* ``cdns-crash`` — the C-DNS **and** the CDN origin crash through the
  rollout.  The resilient stack answers from RFC 8767 stale cache
  entries while the new zone version cannot propagate — the measured
  serve-stale × propagation-delay interaction;
* ``mec-partition`` — the cluster (including the zone secondary) is
  cut off across two updates.  With the primary's journal bounded at
  depth 1 the secondary's serial ages out and recovery is the
  AXFR-style full payload, not a diff;
* ``origin-brownout`` — the origin is up but pathologically slow, so
  propagation (and only propagation) degrades: availability holds
  while mislocalization soars.

Static scenarios, with no control plane and no handover:

* ``static-cdns-crash`` — the C-DNS crashes for 20 s.  The MEC
  deployments route every query through it (TTL-0 answers), so the
  baseline loses availability; the warmed-L-DNS deployments never leave
  their cache and are immune — the paper's point about established CDN
  domains.  The resilient variant (short upstream timeout, TTL-2
  answers, RFC 8767 serve-stale) keeps answering from stale state.
* ``static-mec-partition`` — the whole MEC cluster is cut off.
  Serve-stale cannot help (the resolver itself is unreachable); the §3
  mitigation — a client that falls back to the provider L-DNS on
  timeout — can.
* ``lte-burst-loss`` — Gilbert–Elliott burst loss on the radio link.
  The resilient client's backoff retries and hedged queries trade a few
  duplicate packets for a collapsed tail.

Availability is deadline-based: a lookup counts only if it returned
usable addresses within :data:`DEADLINE_MS` (a streaming player that
waits longer than that rebuffers anyway).  Fault and control-plane
timelines are recorded per cell; one fault cell is run a second time
with the same seed and the two digests must match byte-for-byte, and
serial and sharded runs of the whole grid produce identical results.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.control.plane import ControlPlane, PRIMARY_HOST
from repro.control.churn import default_schedule
from repro.core.deployments import (DEPLOYMENT_KEYS, MEC_DEPLOYMENTS,
                                    WARMED_DEPLOYMENTS, ResilienceConfig,
                                    Testbed, add_provider_ldns, build_testbed)
from repro.errors import QueryTimeout, WireFormatError
from repro.experiments.report import format_table
from repro.faults.plan import FaultPlan, inject
from repro.measure.stats import percentile
from repro.mobile.handoff import HandoffController
from repro.resolver.retry import RetryPolicy
from repro.resolver.stub import StubResolver
from repro.runtime import Claim, Experiment, Param

#: A lookup is "available" only if it returned addresses within this
#: deadline: past it, a streaming client has already rebuffered.
DEADLINE_MS = 800.0

#: Measured lookups per cell (after warmup), sequential and evenly spaced.
DEFAULT_QUERIES = 40
SPACING_MS = 200.0
WARMUP_QUERIES = 2

MODES = ("baseline", "resilient")
FAULT_DEPLOYMENT = "mec-ldns-mec-cdns"
#: The cell run twice: its two digests must match byte for byte.
REPLAYED = ("cdns-crash", FAULT_DEPLOYMENT, "resilient")

#: Mid-session handover (between the rollout and the scale-down).
HANDOFF_AT_MS = 3000.0

#: Fault windows: churn scenarios compose theirs with the churn schedule;
#: the static crash and partition last STATIC_FAULT_MS.
FAULT_AT_MS = 2000.0
CRASH_DURATION_MS = 2500.0
PARTITION_DURATION_MS = 5000.0
BROWNOUT_AT_MS = 1000.0
BROWNOUT_SLOW_MS = 1500.0
BROWNOUT_DURATION_MS = 6000.0
STATIC_FAULT_MS = 20000.0

#: Gilbert–Elliott radio parameters for ``lte-burst-loss`` (~19% packet
#: loss in bursts averaging four back-to-back traversals).
BURST_P_ENTER = 0.06
BURST_P_EXIT = 0.25
BURST_BAD_LOSS = 0.95
BURST_GOOD_LOSS = 0.02


def cluster_host_names(testbed: Testbed) -> List[str]:
    """Every host inside the MEC cluster: k8s nodes plus their pods."""
    names = []
    for node in testbed.mec_site.orchestrator.nodes:
        names.append(node.host.name)
        names.extend(pod.host.name for pod in node.pods)
    return sorted(names)


def _static_crash(testbed: Testbed, _plane: None) -> FaultPlan:
    plan = FaultPlan()
    # The warmed-resolver deployments have no C-DNS in the measured path
    # (the A record "never expires at L-DNS"), so there is nothing to
    # crash: their immunity is the control group, not an omission.
    if testbed.localized:
        plan.crash_host(testbed.cdns_host, FAULT_AT_MS, STATIC_FAULT_MS)
    return plan


class Scenario(NamedTuple):
    """One scenario of the grid: its faults and what else runs in it."""

    name: str
    #: (testbed, control plane or None) -> the scenario's fault plan.
    faults: Callable[..., FaultPlan]
    #: Whether the control plane churns the fleet and the UE hands over.
    churn: bool
    deployments: Tuple[str, ...]
    modes: Tuple[str, ...] = MODES
    #: What the resilient mode hardens: the whole ``stack`` (servers via
    #: ResilienceConfig, plus the retrying stub), the ``stub`` alone, or
    #: the stub's §3 ``fallback``: its retry goes to the provider L-DNS.
    resilient: str = "stack"


SCENARIOS = (
    Scenario("churn-only", lambda testbed, plane: FaultPlan(), True,
             DEPLOYMENT_KEYS, ("resilient",)),
    Scenario("cdns-crash", lambda testbed, plane: FaultPlan()
             .crash_host(testbed.cdns_host, FAULT_AT_MS, CRASH_DURATION_MS)
             .crash_host(PRIMARY_HOST, FAULT_AT_MS, CRASH_DURATION_MS),
             True, (FAULT_DEPLOYMENT,)),
    # The MEC cluster plus the zone secondary: the partition group.
    Scenario("mec-partition", lambda testbed, plane: FaultPlan().partition(
        sorted(cluster_host_names(testbed) + [plane.secondary_host_name]),
        FAULT_AT_MS, PARTITION_DURATION_MS), True, (FAULT_DEPLOYMENT,)),
    Scenario("origin-brownout", lambda testbed, plane: FaultPlan()
             .brownout_host(PRIMARY_HOST, BROWNOUT_AT_MS, BROWNOUT_SLOW_MS,
                            BROWNOUT_DURATION_MS),
             True, (FAULT_DEPLOYMENT,)),
    Scenario("static-cdns-crash", _static_crash, False, DEPLOYMENT_KEYS),
    Scenario("static-mec-partition", lambda testbed, plane: FaultPlan()
             .partition(cluster_host_names(testbed), FAULT_AT_MS,
                        STATIC_FAULT_MS),
             False, (FAULT_DEPLOYMENT,), resilient="fallback"),
    Scenario("lte-burst-loss", lambda testbed, plane: FaultPlan().burst_loss(
        testbed.ue.host.name, "enb-1", at_ms=0.0,
        p_enter=BURST_P_ENTER, p_exit=BURST_P_EXIT,
        bad_loss=BURST_BAD_LOSS, good_loss=BURST_GOOD_LOSS),
        False, (FAULT_DEPLOYMENT,), resilient="stub"),
)
BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}


class ChurnRow(NamedTuple):
    """One (scenario, deployment, mode) cell of the chaos grid.

    The fields after ``stale_during_churn`` are the control plane's and
    the handover's; a static cell has neither, and leaves them at 0.
    """

    scenario: str
    deployment: str
    mode: str
    queries: int
    answered: int                # lookups that returned usable addresses
    availability: float          # answered within DEADLINE_MS / queries
    p50_ms: float                # over every lookup, failures at full cost
    p95_ms: float
    stale_answers: int           # RFC 8767 answers served past their TTL
    fallback_answers: int        # lookups answered by the provider L-DNS
    timeouts: int                # per-attempt timeouts burned by the client
    mean_attempts: float         # transmissions per lookup (1.0 = no retry)
    stale_during_churn: int      # RFC 8767 stale served inside windows
    updates: int = 0             # registry versions published
    applied: int = 0             # versions that reached the router view
    prop_delay_max_ms: float = 0.0  # slowest update-to-applied propagation
    max_staleness_ms: float = 0.0   # widest update staleness window
    mean_staleness_ms: float = 0.0
    misloc_rate: float = 0.0     # mislocalized / answered, whole run
    lookups_in_window: int = 0   # lookups inside propagation windows
    mislocalized_in_window: int = 0
    axfr_fallbacks: int = 0      # IXFRs answered as full AXFR (aged out)
    handoffs: int = 0
    post_handoff_lookups: int = 0
    mislocalized_after_handoff: int = 0


class ChurnResult(NamedTuple):
    """The chaos grid plus its determinism evidence."""

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
        """The chaos grid as an aligned text table."""
        body = [[row.scenario, row.deployment, row.mode,
                 f"{row.availability:.2f}",
                 f"{row.p50_ms:.1f}", f"{row.p95_ms:.1f}",
                 str(row.stale_answers), str(row.fallback_answers),
                 str(row.timeouts), f"{row.mean_attempts:.2f}",
                 f"{row.misloc_rate:.2f}",
                 f"{row.max_staleness_ms:.0f}",
                 f"{row.prop_delay_max_ms:.0f}",
                 str(row.stale_during_churn), str(row.axfr_fallbacks),
                 f"{row.mislocalized_after_handoff}"
                 f"/{row.post_handoff_lookups}"]
                for row in self.rows]
        table = format_table(
            ["scenario", "deployment", "mode", "avail", "p50 ms",
             "p95 ms", "stale", "fallback", "t/o", "att", "misloc",
             "stale ms", "prop ms", "rfc8767", "axfr-fb", "ho-mis"],
            body,
            title=f"Resolution under faults, churn and handover "
                  f"({self.queries} queries/cell, deadline "
                  f"{DEADLINE_MS:.0f} ms)")
        lines = [table, "", "event timelines:"]
        for key, timeline in sorted(self.timelines.items()):
            lines.append(f"  {key}:")
            lines.extend(f"    {event}" for event in timeline or
                         ["(no faults)"])
        return "\n".join(lines)


def client_stub(testbed: Testbed, mode: str) -> StubResolver:
    """The per-mode client against ``testbed``'s configured resolver.

    ``baseline`` is the Figure 5 stub made impatient but kept plain: a
    fixed 1 s timeout and one retry, no backoff, no hedging.
    ``resilient`` is the hardened client: short timeouts, backoff,
    jitter, hedging.
    """
    if mode == "resilient":
        policy = RetryPolicy(retries=3, timeout_ms=250.0, backoff=2.0,
                             max_timeout_ms=1000.0, jitter_frac=0.1,
                             hedge_after_ms=120.0)
    else:
        policy = RetryPolicy(retries=1, timeout_ms=1000.0, backoff=1.0)
    return testbed.ue.stub(policy=policy)


class Lookup(NamedTuple):
    """One measured lookup of a cell."""

    started: float
    latency_ms: float
    status: str
    addresses: Tuple[str, ...]
    stale: bool                  # served past its TTL (RFC 8767)
    fallback: bool               # answered by the provider L-DNS
    mislocalized: bool           # pointed at an endpoint no longer live


#: Called with (time, addresses, stale) after each measured lookup;
#: returns whether the answer was mislocalized.
Note = Callable[[float, Tuple[str, ...], bool], bool]


def run_lookups(testbed: Testbed, client: StubResolver, queries: int,
                note: Optional[Note] = None,
                ) -> Tuple[List[Lookup], int, float]:
    """``WARMUP_QUERIES + queries`` lookups of ``testbed``'s name, in turn.

    Returns the measured lookups, the per-attempt timeouts the client
    burned, and its mean transmissions per lookup.  A lookup whose every
    attempt fails — what the client is documented to raise, nothing
    broader — is a ``TIMEOUT`` lookup with no addresses: under faults,
    failures are data.  The counters cover every lookup, warmup
    included.  A lookup answered by the stub's ``fallback`` (§3's
    provider L-DNS) counts as a fallback answer.
    """
    sim = testbed.sim
    lookups: List[Lookup] = []

    def driver() -> Generator:
        for index in range(WARMUP_QUERIES + queries):
            started = sim.now
            try:
                result = yield from client.query(testbed.query_name)
            except (QueryTimeout, WireFormatError):
                latency, status, addresses = sim.now - started, "TIMEOUT", ()
                stale = used = False
            else:
                status, addresses = result.status, tuple(result.addresses)
                latency, stale = result.query_time_ms, result.stale
                used = result.server != client.server
            if index >= WARMUP_QUERIES:
                lookups.append(Lookup(
                    started, latency, status, addresses, stale, used,
                    note is not None and note(sim.now, addresses, stale)))
            yield SPACING_MS

    sim.run_until_resolved(sim.spawn(driver()))
    return (lookups, client.timeouts_seen,
            client.queries_issued / (WARMUP_QUERIES + queries))


def _churn_fields(plane: ControlPlane,
                  controller: HandoffController) -> Dict[str, object]:
    """A churn cell's control-plane and handover columns."""
    monitor = plane.monitor
    delays = [record.delay_ms
              for record in plane.coordinator.records.values()
              if record.delay_ms is not None]
    return dict(
        updates=len(plane.registry.updates), applied=len(delays),
        prop_delay_max_ms=max(delays) if delays else 0.0,
        max_staleness_ms=monitor.max_staleness_ms,
        mean_staleness_ms=monitor.mean_staleness_ms,
        misloc_rate=monitor.mislocalization_rate,
        lookups_in_window=monitor.lookups_in_window,
        mislocalized_in_window=monitor.mislocalized_in_window,
        axfr_fallbacks=plane.primary.ixfr_axfr_fallbacks,
        handoffs=controller.handoffs,
        post_handoff_lookups=controller.post_handoff_lookups,
        mislocalized_after_handoff=controller.mislocalized_after_handoff)


def _cell(scenario: Scenario, deployment: str, mode: str, queries: int,
          seed: int) -> Tuple[ChurnRow, List[str], str]:
    """Build, injure, measure one cell; churn and hand over if it does."""
    resilient = mode == "resilient"
    testbed = build_testbed(deployment, seed=seed, resilience=(
        ResilienceConfig() if resilient and scenario.resilient == "stack"
        else None))
    plane = None
    if scenario.churn:
        plane = ControlPlane(testbed)
        plane.add_churn(default_schedule())
    injector = inject(testbed.network, scenario.faults(testbed, plane))
    note: Optional[Note] = None
    if plane is not None:
        target_enb = testbed.epc.add_base_station("enb-2", "10.40.1.2")
        controller = HandoffController(testbed.network)
        testbed.sim.call_at(HANDOFF_AT_MS,
                            lambda: controller.handoff(testbed.ue, target_enb))

        def note(now: float, addresses: Tuple[str, ...],
                 stale: bool) -> bool:
            mislocalized = plane.monitor.note_answer(now, addresses, stale)
            if controller.handoffs:
                controller.note_post_handoff_lookup(testbed.ue, mislocalized)
            return mislocalized

    if resilient and scenario.resilient == "fallback":
        # 300 ms for the MEC DNS, then 2 s for the provider L-DNS.
        client = StubResolver(
            testbed.network, testbed.ue.host, testbed.ue.dns,
            RetryPolicy(retries=1, timeout_ms=300.0, backoff=10.0,
                        max_timeout_ms=2000.0),
            fallback=add_provider_ldns(testbed).endpoint)
    else:
        client = client_stub(testbed, mode)
    lookups, timeouts, mean_attempts = run_lookups(testbed, client, queries,
                                                   note)

    usable = [entry for entry in lookups
              if entry.status == "NOERROR" and entry.addresses]
    within = [entry for entry in usable if entry.latency_ms <= DEADLINE_MS]
    latencies = [entry.latency_ms for entry in lookups]
    assert testbed.mec_site is not None
    row = ChurnRow(
        scenario=scenario.name, deployment=deployment, mode=mode,
        queries=len(lookups), answered=len(usable),
        availability=(len(within) / len(lookups) if lookups else 0.0),
        p50_ms=percentile(latencies, 50), p95_ms=percentile(latencies, 95),
        stale_answers=sum(entry.stale for entry in lookups),
        fallback_answers=sum(entry.fallback for entry in lookups),
        timeouts=timeouts, mean_attempts=mean_attempts,
        stale_during_churn=(
            testbed.mec_site.ldns.cache_plugin.stale_served_during_churn),
        **(_churn_fields(plane, controller) if plane is not None else {}))
    timeline = list(injector.timeline) + (plane.log() if plane is not None
                                             else [])
    digest_lines = list(timeline)
    for entry in lookups:
        digest_lines.append(
            f"t={entry.started:.6f} lat={entry.latency_ms:.6f} "
            f"{entry.status} [{','.join(entry.addresses)}] "
            f"stale={entry.stale} mis={entry.mislocalized}")
    return row, timeline, "\n".join(digest_lines)


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------

class ChurnExperiment(Experiment):
    """The chaos grid, one trial per (scenario, deployment, mode) cell.

    Every cell builds its own testbed from the base seed, so sharding
    cannot change any measured value.  One more trial reruns the
    :data:`REPLAYED` cell, and ``merge`` pairs its digest with the
    measured cell's into the published determinism evidence.
    """

    name = "churn"
    title = "§3 chaos grid: faults, control-plane churn, and handover"
    params = (Param("queries", int, DEFAULT_QUERIES,
                    "measured lookups per cell"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        cells = [(scenario.name, deployment, mode)
                 for scenario in SCENARIOS
                 for deployment in scenario.deployments
                 for mode in scenario.modes]
        return [self.spec(index, seed=int(params["seed"]), scenario=scenario,
                          deployment=deployment, mode=mode,
                          queries=int(params["queries"]))
                for index, (scenario, deployment, mode)
                in enumerate(cells + [REPLAYED])]

    def run_trial(self, spec):
        cell = (str(spec.value("scenario")), str(spec.value("deployment")),
                str(spec.value("mode")))
        row, timeline, digest = _cell(BY_NAME[cell[0]], cell[1], cell[2],
                                      int(spec.value("queries")), spec.seed)
        return row, timeline, digest if cell == REPLAYED else None

    def merge(self, params, payloads):
        rows: List[ChurnRow] = []
        timelines: Dict[str, List[str]] = {}
        digests: List[str] = []
        for row, timeline, digest in payloads:
            key = f"{row.scenario}/{row.deployment}/{row.mode}"
            if key not in timelines:  # the rerun repeats its cell's row
                rows.append(row)
                timelines[key] = timeline
            if digest is not None:
                digests.append(digest)
        first, second = digests
        return ChurnResult(rows=rows, timelines=timelines,
                           replays={"/".join(REPLAYED): (first, second)},
                           queries=int(params["queries"]))

    def claims(self, result: ChurnResult) -> List[Claim]:
        """The churn gradient, what each fault does to each mode, and
        the determinism evidence."""
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
        rows += [Claim("brownout/resilient max staleness ms", staleness, ">=",
                       1000.0),
                 Claim("brownout/resilient max staleness ms over clean churn",
                       staleness, ">", integrated.max_staleness_ms)]
        # A static C-DNS crash or MEC partition dents a MEC baseline;
        # serve-stale or provider fallback keeps the resilient client
        # answering inside the deadline.
        for scenario, key in ([("static-cdns-crash", key)
                               for key in MEC_DEPLOYMENTS]
                              + [("static-mec-partition", FAULT_DEPLOYMENT)]):
            base = cell(scenario, "baseline", key)
            hard = cell(scenario, "resilient", key)
            kind, answers = (("stale", hard.stale_answers)
                             if scenario == "static-cdns-crash"
                             else ("provider", hard.fallback_answers))
            rows += [Claim(f"{scenario} {key} baseline availability",
                           base.availability, "<", 0.85),
                     Claim(f"{scenario} {key} resilient availability",
                           hard.availability, ">=", 0.95),
                     Claim(f"{scenario} {key} resilient {kind} answers",
                           answers, ">", 0),
                     Claim(f"{scenario} {key} resilient p95 ms", hard.p95_ms,
                           "<=", DEADLINE_MS)]
        # A warmed resolver is immune to a C-DNS crash; hedging + backoff
        # lift burst-loss availability and the tail.
        rows += [Claim(f"static-cdns-crash {key} baseline availability",
                       cell("static-cdns-crash", "baseline",
                            key).availability, ">=", 0.99)
                 for key in WARMED_DEPLOYMENTS]
        base = cell("lte-burst-loss", "baseline")
        hard = cell("lte-burst-loss")
        faulted = [f"{scenario}/{FAULT_DEPLOYMENT}/{mode}"
                   for scenario, mode in (("cdns-crash", "resilient"),
                                          ("mec-partition", "baseline"),
                                          ("static-cdns-crash", "baseline"),
                                          ("static-mec-partition",
                                           "baseline"))]
        return rows + [
            Claim("burst-loss resilient availability over baseline + 0.10",
                  hard.availability, ">=", base.availability + 0.10),
            Claim("burst-loss resilient p95 ms below baseline", hard.p95_ms,
                  "<", base.p95_ms),
            Claim("replays diverged",
                  sum(first != second
                      for first, second in result.replays.values()),
                  "==", 0),
            Claim("empty fault timelines",
                  sum(not result.timelines.get(key) for key in faulted),
                  "==", 0)]


EXPERIMENT = ChurnExperiment()
