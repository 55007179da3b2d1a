"""Envelope sweep: how far can the C-DNS move before 20 ms breaks?

Figure 5 samples three C-DNS placements (in-cluster, LAN, WAN).  This
extension sweeps the placement continuously: with the L-DNS fixed at the
MEC, the C-DNS is moved from 0 to tens of milliseconds (one-way) from the
P-GW, and the mean resolution latency is measured at each point.

The output locates the *crossover distance* — the C-DNS distance at
which resolution exceeds the paper's 20 ms MEC latency envelope — which
quantifies the paper's conclusion that "only the ideal scenario of C-DNS
being deployed outside but on the same LAN as MEC makes it possible to
serve a DNS request with sub-20 ms end-to-end latency": the sub-20 ms
region is only a few milliseconds wide.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

from repro.core.deployments import build_custom_cdns_testbed
from repro.experiments.report import format_table
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import summarize
from repro.runtime import Claim, Experiment, Param

ENVELOPE_MS = 20.0
DEFAULT_DISTANCES = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 30.0)


class SweepPoint(NamedTuple):
    cdns_one_way_ms: float
    mean_latency_ms: float
    within_envelope: bool


class EnvelopeSweepResult(NamedTuple):
    points: List[SweepPoint]
    queries: int
    #: Linear-interpolated distance where the mean crosses 20 ms.
    crossover_one_way_ms: Optional[float]

    def render(self) -> str:
        """Render the paper-comparable text output."""
        rows = [(f"{point.cdns_one_way_ms:.1f}",
                 f"{point.mean_latency_ms:.1f}",
                 "yes" if point.within_envelope else "no")
                for point in self.points]
        table = format_table(
            ["C-DNS one-way ms", "mean lookup ms", f"< {ENVELOPE_MS:.0f}ms"],
            rows,
            title=f"Envelope sweep ({self.queries} queries/point)")
        crossover = ("beyond the sweep" if self.crossover_one_way_ms is None
                     else f"{self.crossover_one_way_ms:.1f} ms one-way")
        return table + f"\n20 ms envelope crossover: {crossover}"


class EnvelopeSweepExperiment(Experiment):
    """One trial per C-DNS distance; crossover is computed in merge."""

    name = "envelope-sweep"
    title = "Envelope sweep: C-DNS distance vs. the 20 ms envelope"
    params = (Param("queries", int, 40, "queries per sweep point"),
              Param("seed", int, 42, "base RNG seed"),
              Param("distances", tuple, DEFAULT_DISTANCES,
                    "C-DNS one-way distances (ms)", cli=False))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]),
                          distance=float(distance),
                          queries=int(params["queries"]))
                for index, distance in enumerate(params["distances"])]

    def run_trial(self, spec):
        distance = float(spec.value("distance"))
        testbed = build_custom_cdns_testbed(distance, seed=spec.seed)
        measurements = measure_deployment_queries(
            testbed, int(spec.value("queries")))
        mean = summarize([m.latency_ms for m in measurements]).mean
        return SweepPoint(
            cdns_one_way_ms=distance,
            mean_latency_ms=mean,
            within_envelope=mean < ENVELOPE_MS)

    def merge(self, params, payloads):
        points = list(payloads)
        return EnvelopeSweepResult(
            points=points, queries=int(params["queries"]),
            crossover_one_way_ms=_crossover(points))

    def claims(self, result: EnvelopeSweepResult) -> List[Claim]:
        """Latency grows with distance; the 20 ms crossover is LAN-scale."""
        means = [point.mean_latency_ms for point in result.points]
        # A sweep that never crosses 20 ms (None) has no crossover in band;
        # a real crossover is past the first point's distance, never 0.
        crossover = result.crossover_one_way_ms or math.inf
        return [
            # Allow ~1 ms of sampling noise between neighbouring points.
            Claim("largest latency drop ms to the next point", max(
                earlier - later for earlier, later in zip(means, means[1:])),
                "<=", 1.0),
            Claim("crossover ms one-way, floor", crossover, ">=", 1.0),
            Claim("crossover ms one-way, ceiling", crossover, "<=", 8.0),
            Claim("collocated C-DNS mean ms", means[0], "<", ENVELOPE_MS),
            Claim("farthest C-DNS mean ms", means[-1], ">=", ENVELOPE_MS)]


EXPERIMENT = EnvelopeSweepExperiment()


def _crossover(points: List[SweepPoint]) -> Optional[float]:
    for previous, current in zip(points, points[1:]):
        if previous.mean_latency_ms < ENVELOPE_MS <= current.mean_latency_ms:
            span = current.mean_latency_ms - previous.mean_latency_ms
            if span <= 0:
                return current.cdns_one_way_ms
            fraction = (ENVELOPE_MS - previous.mean_latency_ms) / span
            return (previous.cdns_one_way_ms
                    + fraction * (current.cdns_one_way_ms
                                  - previous.cdns_one_way_ms))
    return None
