"""Figure 5: DNS lookup latency on the LTE testbed for six deployments.

For each deployment, run a series of measured queries with the paper's
dig + tcpdump-at-P-GW methodology and report the mean with min/max error
lines, split into the wireless and resolver components.

Paper values (read off the plot/text) are carried alongside so the
renderer and EXPERIMENTS.md can show paper-vs-measured directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    ENVELOPE_DEPLOYMENTS,
    MEC_DEPLOYMENTS,
    WARMED_DEPLOYMENTS,
    build_testbed,
)
from repro.experiments.report import format_table
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import SummaryStats, summarize
from repro.runtime import Claim, Experiment, Param

#: Mean lookup latency per bar as published (ms).
PAPER_MEANS: Dict[str, float] = {
    "mec-ldns-mec-cdns": 14.4,
    "mec-ldns-lan-cdns": 19.4,
    "mec-ldns-wan-cdns": 60.9,
    "lan-ldns": 114.6,
    "google-dns": 112.5,
    "cloudflare-dns": 128.4,
}


class Figure5Row(NamedTuple):
    key: str
    label: str
    latency: SummaryStats
    wireless: SummaryStats
    resolver: SummaryStats
    paper_mean: float


class Figure5Result(NamedTuple):
    rows: List[Figure5Row]
    queries: int

    def means(self) -> Dict[str, float]:
        """Deployment key -> mean lookup latency in ms."""
        return {row.key: row.latency.mean for row in self.rows}

    def row(self, key: str) -> Figure5Row:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def render_chart(self, width: int = 46) -> str:
        """A horizontal bar chart shaped like the paper's Figure 5.

        Each bar splits into the wireless segment (``=``) and the
        resolver segment (``#``); ``|`` marks min/max whiskers scaled to
        the same axis.
        """
        scale_max = max(row.latency.maximum for row in self.rows)
        label_width = max(len(row.label) for row in self.rows)
        lines = ["Figure 5 (chart): '=' wireless, '#' resolver, "
                 "'|' min/max"]
        for row in self.rows:
            wireless_cells = round(width * row.wireless.mean / scale_max)
            resolver_cells = round(width * row.resolver.mean / scale_max)
            lo = round(width * row.latency.minimum / scale_max)
            hi = min(round(width * row.latency.maximum / scale_max),
                     width - 1)
            bar = list("=" * wireless_cells + "#" * resolver_cells)
            bar.extend(" " * (width - len(bar)))
            for marker in (lo, hi):
                if 0 <= marker < width and bar[marker] == " ":
                    bar[marker] = "|"
            lines.append(f"{row.label.ljust(label_width)} "
                         f"{''.join(bar)} {row.latency.mean:6.1f} ms")
        return "\n".join(lines)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = []
        for row in self.rows:
            table_rows.append((
                row.label,
                f"{row.latency.mean:.1f}",
                f"{row.paper_mean:.1f}",
                f"{row.latency.minimum:.1f}",
                f"{row.latency.maximum:.1f}",
                f"{row.wireless.mean:.1f}",
                f"{row.resolver.mean:.1f}"))
        return format_table(
            ["Deployment", "mean ms", "paper ms", "min", "max",
             "wireless", "resolver"],
            table_rows,
            title=(f"Figure 5: DNS lookup latency on the LTE testbed "
                   f"({self.queries} queries/bar)"))


class Figure5Experiment(Experiment):
    """One trial per deployment bar.

    Each bar already builds its own testbed from the base seed, so the
    cells keep that seed unchanged and the sharded output matches the
    historical single-process run byte for byte.
    """

    name = "figure5"
    title = "Figure 5: DNS lookup latency on the LTE testbed"
    params = (Param("queries", int, 40, "queries per bar"),
              Param("seed", int, 42, "base RNG seed"),
              Param("ecs", bool, False, "enable ECS", cli=False))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]), key=key,
                          queries=int(params["queries"]),
                          ecs=bool(params["ecs"]))
                for index, key in enumerate(DEPLOYMENT_KEYS)]

    def run_trial(self, spec):
        key = str(spec.value("key"))
        testbed = build_testbed(key, seed=spec.seed,
                                ecs=bool(spec.value("ecs")))
        measurements = measure_deployment_queries(
            testbed, int(spec.value("queries")))
        return Figure5Row(
            key=key,
            label=DEPLOYMENT_LABELS[key],
            latency=summarize([m.latency_ms for m in measurements]),
            wireless=summarize([m.wireless_ms for m in measurements]),
            resolver=summarize([m.resolver_ms for m in measurements]),
            paper_mean=PAPER_MEANS[key])

    def merge(self, params, payloads):
        return Figure5Result(rows=list(payloads),
                             queries=int(params["queries"]))

    def render_result(self, result):
        return result.render_chart() + "\n\n" + result.render()

    def claims(self, result: Figure5Result) -> List[Claim]:
        """Bar order, the 20 ms envelope, a 3-8 ms LAN gap, a >= 7.5x
        best-case speedup, and the wireless leg dominating the MEC bar."""
        means = result.means()
        rows = [Claim(f"{earlier} mean ms below {later}", means[earlier],
                      "<", means[later])
                for earlier, later in zip(MEC_DEPLOYMENTS,
                                          MEC_DEPLOYMENTS[1:])]
        rows += [Claim(f"{key} mean ms", mean,
                       "<" if key in ENVELOPE_DEPLOYMENTS else ">", 20)
                 for key, mean in means.items()]
        gap = means["mec-ldns-lan-cdns"] - means["mec-ldns-mec-cdns"]
        mec_row = result.row("mec-ldns-mec-cdns")
        return rows + [
            Claim("MEC vs LAN C-DNS gap ms, floor", gap, ">=", 3),
            Claim("MEC vs LAN C-DNS gap ms, ceiling", gap, "<=", 8),
            Claim("best-case speedup over MEC",
                  max(means[key] for key in WARMED_DEPLOYMENTS)
                  / means["mec-ldns-mec-cdns"], ">=", 7.5),
            Claim("MEC bar wireless share",
                  mec_row.wireless.mean / mec_row.latency.mean, ">=", 0.6)]


EXPERIMENT = Figure5Experiment()
