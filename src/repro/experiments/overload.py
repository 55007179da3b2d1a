"""Overload experiment: the MEC DNS under a query flood, with and
without the orchestrator's switch-to-provider mitigation.

§3 of the paper: the MEC DNS is best-effort, and the orchestrator "can
simply switch (or only unicast) to the provider's L-DNS during high
ingress (above a threshold)".  With the finite-capacity server model
(one worker, ~1 ms service time) a flood saturates the MEC DNS: its
queue fills, legitimate queries are dropped or massively delayed.  The
mitigation trades latency (the provider is ~90 ms away) for availability.

Measured per policy: baseline latency, latency during the attack, and
the fraction of legitimate queries answered during the attack.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple

from repro import telemetry
from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.message import cached_wire, make_query
from repro.errors import QueryTimeout
from repro.experiments.capacity import CONTENT, content_zone
from repro.experiments.report import format_table
from repro.mec.ingress import DosMitigation, IngressMonitor
from repro.measure.stats import percentile
from repro.mobile.ue import UserEquipment
from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.netsim.socket import UdpSocket
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.retry import RetryPolicy
from repro.runtime import Claim, Experiment, Param

BASELINE_MS = 2_000.0
ATTACK_MS = 4_000.0
COOLDOWN_MS = 1_000.0
LEGIT_INTERVAL_MS = 50.0
LEGIT_TIMEOUT_MS = 600.0


class OverloadRow(NamedTuple):
    policy: str
    baseline_p95_ms: float
    attack_p95_ms: float
    attack_success_rate: float
    mitigation_activations: int
    queries_dropped_at_mec: int


class OverloadResult(NamedTuple):
    rows: List[OverloadRow]
    attack_qps: float

    def row(self, policy: str) -> OverloadRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = [(row.policy,
                       f"{row.baseline_p95_ms:.1f}",
                       f"{row.attack_p95_ms:.1f}",
                       f"{100 * row.attack_success_rate:.0f}%",
                       str(row.mitigation_activations),
                       str(row.queries_dropped_at_mec))
                      for row in self.rows]
        return format_table(
            ["Policy", "baseline p95 ms", "attack p95 ms",
             "answered during attack", "mitigations", "dropped at MEC"],
            table_rows,
            title=f"MEC DNS under a {self.attack_qps:.0f} qps flood")


def _run_policy(policy: str, attack_qps: float, seed: int) -> OverloadRow:
    sim = Simulator()
    net = Network(sim, RandomStreams(seed))
    telemetry.attach_default(net)
    net.add_host("mec-dns", "10.96.0.10")
    net.add_host("provider", "203.0.113.10")
    net.add_host("attacker", "10.45.0.66")
    net.add_link("attacker", "mec-dns", Constant(3))
    ue = UserEquipment(net, "ue", "10.45.0.2",
                       default_dns=Endpoint("10.96.0.10", 53))
    net.add_link("ue", "mec-dns", Constant(3))
    net.add_link("ue", "provider", Constant(45))

    # Finite capacity: one worker, ~1.2 ms service -> ~830 qps ceiling.
    mec_dns = AuthoritativeServer(net, net.host("mec-dns"),
                                  [content_zone()],
                                  processing_delay=Constant(1.2),
                                  workers=1, max_queue=64)
    AuthoritativeServer(net, net.host("provider"), [content_zone()])

    monitor = IngressMonitor(window_ms=500, threshold_qps=400)
    mitigation = DosMitigation(monitor,
                               mec_dns=Endpoint("10.96.0.10", 53),
                               provider_ldns=Endpoint("203.0.113.10", 53))
    if policy == "switch-to-provider":
        mitigation.manage(ue)
    original = mec_dns.sock.on_datagram

    def metered(datagram, client, sock):
        monitor.record(sim.now)
        mitigation.evaluate(sim.now)
        original(datagram, client, sock)

    mec_dns.sock.on_datagram = metered

    # The flood: fixed-rate datagrams straight at the MEC DNS, shaped as a
    # resolver's queries (EDNS0 with a client subnet).  It is the one
    # foreign sender: raw bytes with no decoded view, which the server
    # must parse.
    attacker_sock = UdpSocket(net.host("attacker"))
    gap_ms = 1000.0 / attack_qps
    edns = Edns(options=[ClientSubnet("10.45.0.66", 24)])

    def flood() -> Generator:
        yield BASELINE_MS
        elapsed = 0.0
        index = 0
        while elapsed < ATTACK_MS:
            index += 1
            query = make_query(CONTENT, msg_id=(index % 0xFFFF) or 1,
                               edns=edns)
            attacker_sock.send_to(cached_wire(query),
                                  Endpoint("10.96.0.10", 53))
            yield gap_ms
            elapsed += gap_ms

    sim.spawn(flood())

    baseline_latencies: List[float] = []
    attack_latencies: List[float] = []
    attack_attempts = 0
    attack_successes = 0

    def legit() -> Generator:
        nonlocal attack_attempts, attack_successes
        end = BASELINE_MS + ATTACK_MS + COOLDOWN_MS
        while sim.now < end:
            in_attack = BASELINE_MS <= sim.now < BASELINE_MS + ATTACK_MS
            stub = ue.stub(policy=RetryPolicy(retries=0,
                                              timeout_ms=LEGIT_TIMEOUT_MS))
            if in_attack:
                attack_attempts += 1
            try:
                result = yield from stub.query(CONTENT)
            except QueryTimeout:
                yield LEGIT_INTERVAL_MS
                continue
            if in_attack:
                attack_successes += 1
                attack_latencies.append(result.query_time_ms)
            elif sim.now < BASELINE_MS:
                baseline_latencies.append(result.query_time_ms)
            yield LEGIT_INTERVAL_MS

    sim.run_until_resolved(sim.spawn(legit()))
    return OverloadRow(
        policy=policy,
        baseline_p95_ms=percentile(baseline_latencies, 95),
        attack_p95_ms=(percentile(attack_latencies, 95)
                       if attack_latencies else float("inf")),
        attack_success_rate=(attack_successes / attack_attempts
                             if attack_attempts else 0.0),
        mitigation_activations=mitigation.activations,
        queries_dropped_at_mec=mec_dns.queries_dropped)


class OverloadExperiment(Experiment):
    """One trial per mitigation policy under the same flood."""

    name = "overload"
    title = "MEC DNS under a query flood, with/without mitigation"
    params = (Param("attack_qps", float, 1500.0, "flood rate"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]), policy=policy,
                          attack_qps=float(params["attack_qps"]))
                for index, policy in enumerate(("none",
                                                "switch-to-provider"))]

    def run_trial(self, spec):
        return _run_policy(str(spec.value("policy")),
                           float(spec.value("attack_qps")), spec.seed)

    def merge(self, params, payloads):
        return OverloadResult(rows=list(payloads),
                              attack_qps=float(params["attack_qps"]))

    def claims(self, result: OverloadResult) -> List[Claim]:
        """A flood degrades service; the far provider restores it, slower."""
        unmitigated = result.row("none")
        mitigated = result.row("switch-to-provider")
        return [
            Claim("unmitigated attack success rate",
                  unmitigated.attack_success_rate, "<", 0.8),
            Claim("mitigated attack success rate",
                  mitigated.attack_success_rate, ">", 0.95),
            Claim("mitigation activations", mitigated.mitigation_activations,
                  ">=", 1),
            Claim("mitigated attack p95 ms", mitigated.attack_p95_ms, "<",
                  LEGIT_TIMEOUT_MS),
            Claim("mitigated attack p95 ms over its baseline",
                  mitigated.attack_p95_ms, ">", mitigated.baseline_p95_ms)]


EXPERIMENT = OverloadExperiment()
