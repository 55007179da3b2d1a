"""Figure 3: distribution of DNS answers across provider CIDR pools.

For each Table 1 domain and connectivity, tally which provider pool each
answer falls into (the paper maps answer IPs to the CIDR blocks in the
legend).  The reproduced claims:

1. for a fixed domain queried from one location, the answer distribution
   over pools *differs by access network*;
2. only the pools of that domain's deployment ever appear;
3. multi-provider domains (Airbnb, Expedia, TripAdvisor) really do spread
   across providers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple

from repro.cdn.providers import CONNECTIVITIES, TABLE1_SITES, table1_site
from repro.experiments.public_internet import PublicInternetScenario
from repro.experiments.report import format_bar, format_table
from repro.runtime import Claim, Experiment, Param, derive_seed


class Figure3Row(NamedTuple):
    site: str
    connectivity: str
    #: pool label -> fraction of answers (sums to 1 when none unmatched).
    distribution: Dict[str, float]
    unmatched: int


class Figure3Result(NamedTuple):
    rows: List[Figure3Row]
    trials: int

    def distribution_for(self, site: str,
                         connectivity: str) -> Dict[str, float]:
        """The pool-share distribution for one (site, connectivity)."""
        for row in self.rows:
            if row.site == site and row.connectivity == connectivity:
                return row.distribution
        raise KeyError((site, connectivity))

    def render(self) -> str:
        """Render the paper-comparable text output."""
        blocks: List[str] = [
            f"Figure 3: DNS answer distribution over provider pools "
            f"({self.trials} queries/bar)", ""]
        for site in sorted({row.site for row in self.rows}):
            blocks.append(f"--- {site} ---")
            table_rows = []
            for row in self.rows:
                if row.site != site:
                    continue
                for label, fraction in sorted(row.distribution.items()):
                    table_rows.append((
                        row.connectivity, label,
                        f"{100 * fraction:5.1f}%", format_bar(fraction)))
            blocks.append(format_table(
                ["Connectivity", "Pool", "Share", ""], table_rows))
            blocks.append("")
        return "\n".join(blocks)


class Figure3Experiment(Experiment):
    """One trial per (site, connectivity) bar, independently seeded."""

    name = "figure3"
    title = "Figure 3: DNS answer distribution over provider pools"
    params = (Param("trials", int, 25, "queries per bar"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        trials = int(params["trials"])
        base = int(params["seed"])
        specs = []
        for deployment in TABLE1_SITES:
            for connectivity in CONNECTIVITIES:
                specs.append(self.spec(
                    len(specs),
                    seed=derive_seed(base, "figure3", deployment.site,
                                     connectivity),
                    site=deployment.site, connectivity=connectivity,
                    trials=trials))
        return specs

    def run_trial(self, spec):
        site = str(spec.value("site"))
        connectivity = str(spec.value("connectivity"))
        deployment = table1_site(site)
        scenario = PublicInternetScenario(seed=spec.seed)
        results = scenario.run_series(connectivity, deployment,
                                      int(spec.value("trials")))
        counts: Counter = Counter()
        unmatched = 0
        for result in results:
            for address in result.addresses:
                pool = deployment.pool_for_ip(address)
                if pool is None:
                    unmatched += 1
                else:
                    counts[pool.label] += 1
        total = sum(counts.values())
        distribution = {label: count / total
                        for label, count in counts.items()} if total else {}
        return Figure3Row(site, connectivity, distribution, unmatched)

    def merge(self, params, payloads):
        return Figure3Result(rows=list(payloads),
                             trials=int(params["trials"]))

    def claims(self, result: Figure3Result) -> List[Claim]:
        """Only the site's pools answer; wired and cellular shares differ."""
        rows = [Claim("pools answered outside the deployment", sum(
                    len(set(row.distribution) - {
                        pool.label for pool in table1_site(row.site).pools})
                    for row in result.rows), "==", 0),
                Claim("unmatched answers",
                      sum(row.unmatched for row in result.rows), "==", 0)]
        for site in (deployment.site for deployment in TABLE1_SITES):
            wired = result.distribution_for(site, "wired-campus")
            cellular = result.distribution_for(site, "cellular-mobile")
            if wired and cellular:  # their weights differ by >= 15 points
                top = max(wired, key=wired.get)
                gap = abs(wired[top] - cellular.get(top, 0.0))
                rows.append(Claim(f"{site} wired/cellular top-pool share gap",
                                  gap, ">=", 0.10))
        return rows


EXPERIMENT = Figure3Experiment()
