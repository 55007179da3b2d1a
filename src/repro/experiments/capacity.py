"""Capacity curve: the MEC DNS under increasing offered load.

A MEC site's DNS serves every application at that edge from constrained
hardware, so its capacity envelope matters (the paper's DoS discussion is
the adversarial corner of the same curve).  This experiment drives the
finite-capacity MEC DNS with an open-loop load generator at increasing
offered rates and reports the classic hockey-stick: flat latency and
loss-free goodput below the service capacity, then queueing blow-up and
loss beyond it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.dnswire.message import ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import A, NS, SOA
from repro.dnswire.types import RecordType
from repro.dnswire.zone import Zone
from repro.experiments.report import format_table
from repro.measure.loadgen import LoadResult, run_load
from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.resolver.authoritative import AuthoritativeServer
from repro.runtime import Claim, Experiment, Param

CDN_DOMAIN = "mycdn.ciab.test"
CONTENT = Name(f"video.demo1.{CDN_DOMAIN}")

#: Service model of the benchmarked MEC DNS: 2 workers x 1 ms service
#: time -> nominal capacity ~2000 qps.
WORKERS = 2
SERVICE_MS = 1.0
NOMINAL_CAPACITY_QPS = WORKERS * 1000.0 / SERVICE_MS

DEFAULT_RATES = (200.0, 500.0, 1000.0, 1500.0, 1800.0, 2200.0, 3000.0,
                 4000.0)
DEFAULT_DURATION_MS = 2000.0


def content_zone() -> Zone:
    """The one-name delivery zone the capacity and overload servers host."""
    zone = Zone(Name(CDN_DOMAIN))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.SOA, 300,
                            SOA(Name(f"ns.{CDN_DOMAIN}"),
                                Name(f"admin.{CDN_DOMAIN}"), 1, 2, 3, 4, 60)))
    zone.add(ResourceRecord(Name(CDN_DOMAIN), RecordType.NS, 300,
                            NS(Name(f"ns.{CDN_DOMAIN}"))))
    zone.add(ResourceRecord(CONTENT, RecordType.A, 0, A("10.233.1.10")))
    return zone


class CapacityResult(NamedTuple):
    """The measured curve."""

    points: List[LoadResult]
    nominal_capacity_qps: float
    #: First offered rate where loss exceeded 1%.
    saturation_qps: Optional[float]

    def render(self) -> str:
        """Render the capacity-curve text table."""
        rows = [(f"{point.offered_qps:.0f}",
                 f"{point.goodput_qps:.0f}",
                 f"{100 * point.loss_rate:.1f}%",
                 f"{point.p50_ms:.1f}",
                 f"{point.p95_ms:.1f}")
                for point in self.points]
        table = format_table(
            ["offered qps", "goodput qps", "loss", "p50 ms", "p95 ms"],
            rows,
            title=(f"MEC DNS capacity curve ({WORKERS} workers x "
                   f"{SERVICE_MS:.1f} ms service)"))
        saturation = ("not reached" if self.saturation_qps is None
                      else f"{self.saturation_qps:.0f} qps offered")
        return (table
                + f"\nnominal capacity: {self.nominal_capacity_qps:.0f} qps; "
                  f"saturation onset: {saturation}")


class CapacityExperiment(Experiment):
    """One trial per offered rate; each gets a fresh server."""

    name = "capacity"
    title = "MEC DNS capacity curve under increasing offered load"
    params = (Param("duration_ms", float, DEFAULT_DURATION_MS,
                    "load duration per rate (ms)"),
              Param("seed", int, 42, "base RNG seed"),
              Param("rates", tuple, DEFAULT_RATES,
                    "offered rates (qps)", cli=False))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]),
                          rate=float(rate),
                          duration_ms=float(params["duration_ms"]))
                for index, rate in enumerate(params["rates"])]

    def run_trial(self, spec):
        sim = Simulator()
        net = Network(sim, RandomStreams(spec.seed))
        from repro.core.deployments import _attach_ambient_telemetry
        _attach_ambient_telemetry(net)
        net.add_host("mec-dns", "10.96.0.10")
        net.add_host("clients", "10.45.0.2")
        net.add_link("clients", "mec-dns", Constant(1))
        AuthoritativeServer(net, net.host("mec-dns"), [content_zone()],
                            processing_delay=Constant(SERVICE_MS),
                            workers=WORKERS, max_queue=128)
        return run_load(net, net.host("clients"),
                        Endpoint("10.96.0.10", 53), CONTENT,
                        offered_qps=float(spec.value("rate")),
                        duration_ms=float(spec.value("duration_ms")),
                        reply_timeout_ms=1000.0)

    def merge(self, params, payloads):
        points = list(payloads)
        saturation = next((point.offered_qps for point in points
                           if point.loss_rate > 0.01), None)
        return CapacityResult(points=points,
                              nominal_capacity_qps=NOMINAL_CAPACITY_QPS,
                              saturation_qps=saturation)

    def claims(self, result: CapacityResult) -> List[Claim]:
        """Lossless below capacity; lossy, slow and capped well beyond it."""
        nominal = result.nominal_capacity_qps
        below = [point for point in result.points
                 if point.offered_qps <= 0.75 * nominal]
        above = [point for point in result.points
                 if point.offered_qps >= 1.5 * nominal]
        rows = [Claim("points at or below 75% capacity", len(below), ">=", 1),
                Claim("points at or above 150% capacity", len(above), ">=", 1),
                Claim("sweeps without a saturation onset",
                      int(result.saturation_qps is None), "==", 0)]
        if not below or not above:
            return rows
        return rows + [
            Claim("largest loss rate at or below 75% capacity",
                  max(point.loss_rate for point in below), "<", 0.01),
            Claim("smallest loss rate at or above 150% capacity",
                  min(point.loss_rate for point in above), ">", 0.05),
            Claim("p95 ms beyond capacity over 5x below",
                  max(point.p95_ms for point in above), ">",
                  5 * max(point.p95_ms for point in below)),
            Claim("largest goodput qps beyond capacity",
                  max(point.goodput_qps for point in above), "<=",
                  1.15 * nominal)]


EXPERIMENT = CapacityExperiment()
