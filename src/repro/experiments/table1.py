"""Table 1: the five travel sites and the CDN domain tested for each.

The table itself is data (it names the measurement targets); the trial
re-derives it from the provider models and verifies the domains are the
ones used by the Figure 2/3 experiments.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.cdn.providers import TABLE1_SITES
from repro.experiments.report import format_table
from repro.runtime import Experiment


class Table1Row(NamedTuple):
    site: str
    domain: str
    providers: str


class Table1Result(NamedTuple):
    rows: List[Table1Row]

    def render(self) -> str:
        """Render the paper-comparable text output."""
        return format_table(
            ["Online travel agency", "Tested CDN domain name",
             "Providers observed (Fig. 3)"],
            [(row.site, row.domain, row.providers) for row in self.rows],
            title="Table 1: CDN domains tested for static web content")


class Table1Experiment(Experiment):
    """Pure data derivation: one trial, no randomness, no parameters."""

    name = "table1"
    title = "Table 1: CDN domains tested for static web content"

    def trials(self, params):
        return [self.spec(0, seed=0)]

    def run_trial(self, spec):
        rows = []
        for deployment in TABLE1_SITES:
            providers = sorted({pool.provider for pool in deployment.pools})
            rows.append(Table1Row(
                site=deployment.site,
                domain=deployment.domain.to_text().rstrip("."),
                providers=", ".join(providers)))
        return Table1Result(rows=rows)

    def merge(self, params, payloads):
        return payloads[0]


EXPERIMENT = Table1Experiment()
