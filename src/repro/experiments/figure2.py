"""Figure 2: DNS lookup latency per CDN domain and access network.

For each Table 1 domain and each of the three connectivities, run a
series of dig-style lookups (the paper: "at least 12 tests"), summarise
with the 8th-92nd percentile trim, and report bar height (trimmed mean)
plus the min/max error lines.

Shape claims this reproduces:

1. cellular-mobile ≫ wifi-home ≳ wired-campus for every domain;
2. cellular-mobile has visibly higher variability;
3. per-domain scales differ (Airbnb's C-DNS is slower than Booking's).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.cdn.providers import CONNECTIVITIES, TABLE1_SITES, table1_site
from repro.experiments.public_internet import PublicInternetScenario
from repro.experiments.report import format_table
from repro.measure.stats import SummaryStats, summarize
from repro.runtime import Claim, Experiment, Param, derive_seed


class Figure2Row(NamedTuple):
    site: str
    connectivity: str
    stats: SummaryStats


class Figure2Result(NamedTuple):
    rows: List[Figure2Row]
    trials: int

    def bars(self) -> Dict[Tuple[str, str], float]:
        """(site, connectivity) -> bar height in ms."""
        return {(row.site, row.connectivity): row.stats.mean
                for row in self.rows}

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = []
        for row in self.rows:
            stats = row.stats
            table_rows.append((
                row.site, row.connectivity,
                f"{stats.mean:.1f}", f"{stats.minimum:.1f}",
                f"{stats.maximum:.1f}", f"{stats.stdev:.1f}"))
        return format_table(
            ["Site", "Connectivity", "mean ms (8-92 pct)",
             "min", "max", "stdev"],
            table_rows,
            title=f"Figure 2: DNS lookup latency ({self.trials} tests/bar)")


class Figure2Experiment(Experiment):
    """One trial per (site, connectivity) bar, independently seeded."""

    name = "figure2"
    title = "Figure 2: DNS lookup latency per CDN domain and access network"
    # 25 matches the paper's "at least 12 tests" with margin.
    params = (Param("trials", int, 25, "tests per bar"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        trials = int(params["trials"])
        base = int(params["seed"])
        specs = []
        for deployment in TABLE1_SITES:
            for connectivity in CONNECTIVITIES:
                specs.append(self.spec(
                    len(specs),
                    seed=derive_seed(base, "figure2", deployment.site,
                                     connectivity),
                    site=deployment.site, connectivity=connectivity,
                    trials=trials))
        return specs

    def run_trial(self, spec):
        site = str(spec.value("site"))
        connectivity = str(spec.value("connectivity"))
        scenario = PublicInternetScenario(seed=spec.seed)
        results = scenario.run_series(connectivity, table1_site(site),
                                      int(spec.value("trials")))
        stats = summarize([result.query_time_ms for result in results])
        return Figure2Row(site, connectivity, stats)

    def merge(self, params, payloads):
        return Figure2Result(rows=list(payloads),
                             trials=int(params["trials"]))

    def claims(self, result: Figure2Result) -> List[Claim]:
        """Per site: cellular > wifi > wired, cellular > 2x wired, noisier."""
        bars = result.bars()
        stdevs = {(row.site, row.connectivity): row.stats.stdev
                  for row in result.rows}
        rows = []
        for site in (deployment.site for deployment in TABLE1_SITES):
            wired, wifi, cellular = (bars[(site, connectivity)]
                                     for connectivity in CONNECTIVITIES)
            rows += [
                Claim(f"{site} cellular ms over wifi", cellular, ">", wifi),
                Claim(f"{site} cellular ms over 2x wired", cellular, ">",
                      2 * wired),
                Claim(f"{site} wifi ms over wired", wifi, ">", wired),
                Claim(f"{site} cellular stdev ms over wired",
                      stdevs[(site, "cellular-mobile")], ">",
                      stdevs[(site, "wired-campus")])]
        return rows


EXPERIMENT = Figure2Experiment()
