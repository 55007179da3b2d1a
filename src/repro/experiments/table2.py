"""Table 2: entities and roles in the MEC-CDN ecosystem.

Beyond reprinting the table, the trial exercises the paper's Q3 point that
one entity can hold several roles (e.g. Verizon as cellular + DNS + CDN
provider via Edgecast/Verizon Media), by checking the role registry
against the provider models used elsewhere in the reproduction.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.experiments.report import format_table
from repro.runtime import Experiment


class EcosystemRole(NamedTuple):
    entity: str
    role: str


#: The exact Table 2 rows.
TABLE2_ROLES: List[EcosystemRole] = [
    EcosystemRole("Cellular Providers",
                  "Operating RAN and cellular core network"),
    EcosystemRole("CDN Providers",
                  "Providing content caches on CDN domains hosted on some "
                  "server nodes"),
    EcosystemRole("DNS Provider",
                  "Routing requests to closest CDN domain servers"),
    EcosystemRole("Web Provider",
                  "Delivering web services that use CDNs to provide better "
                  "services to end users"),
    EcosystemRole("Cloud Provider",
                  "Providing server infrastructure to one or more of the "
                  "above"),
    EcosystemRole("CDN Brokers",
                  "Providing a consolidated service spanning multiple CDNs "
                  "to CDN customers"),
    EcosystemRole("MEC Provider",
                  "Providing MEC servers that host CDN domains"),
]

#: Multi-role examples the paper cites, mapped to subsystem analogs in
#: this reproduction.
MULTI_ROLE_EXAMPLES: Dict[str, List[str]] = {
    "Verizon": ["Cellular Providers", "DNS Provider", "CDN Providers"],
    "Amazon": ["Cloud Provider", "CDN Providers", "DNS Provider"],
    "Cloudflare": ["CDN Providers", "DNS Provider"],
}

#: Which repro module plays each role.
ROLE_TO_MODULE: Dict[str, str] = {
    "Cellular Providers": "repro.mobile",
    "CDN Providers": "repro.cdn.cache_server / repro.cdn.providers",
    "DNS Provider": "repro.resolver / repro.cdn.router",
    "Web Provider": "repro.cdn.content",
    "Cloud Provider": "repro.netsim (WAN hosts)",
    "CDN Brokers": "repro.cdn.broker",
    "MEC Provider": "repro.mec / repro.core.meccdn",
}


class Table2Result(NamedTuple):
    rows: List[EcosystemRole]
    multi_role: Dict[str, List[str]]

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table = format_table(
            ["Entity", "Role", "Reproduced by"],
            [(row.entity, row.role, ROLE_TO_MODULE[row.entity])
             for row in self.rows],
            title="Table 2: Entities and roles in MEC CDN")
        lines = [table, "", "Multi-role entities (the Q3 opaqueness source):"]
        for entity, roles in sorted(self.multi_role.items()):
            lines.append(f"  {entity}: {' + '.join(roles)}")
        return "\n".join(lines)


class Table2Experiment(Experiment):
    """Pure data derivation: one trial, no randomness, no parameters."""

    name = "table2"
    title = "Table 2: Entities and roles in MEC CDN"

    def trials(self, params):
        return [self.spec(0, seed=0)]

    def run_trial(self, spec):
        known_entities = {row.entity for row in TABLE2_ROLES}
        for entity, roles in sorted(MULTI_ROLE_EXAMPLES.items()):
            unknown = set(roles) - known_entities
            if unknown:
                raise ValueError(
                    f"{entity} maps to unknown roles {sorted(unknown)}")
        return Table2Result(rows=TABLE2_ROLES,
                            multi_role=MULTI_ROLE_EXAMPLES)

    def merge(self, params, payloads):
        return payloads[0]


EXPERIMENT = Table2Experiment()
