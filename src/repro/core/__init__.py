"""The paper's contribution: MEC-CDN assembly and evaluated deployments.

* :mod:`repro.core.meccdn` — :class:`MecCdnSite` wires the orchestrator,
  CoreDNS L-DNS (split namespace, stub domain), the ATC-style C-DNS, and
  cache pods into the Figure 4 system.
* :mod:`repro.core.deployments` — the LTE testbed and the six DNS
  deployment options evaluated in Figure 5.
"""

from repro.core.meccdn import MecCdnSite
from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    ResilienceConfig,
    Testbed,
    add_provider_ldns,
    build_testbed,
)

__all__ = [
    "MecCdnSite",
    "DEPLOYMENT_KEYS",
    "DEPLOYMENT_LABELS",
    "ResilienceConfig",
    "Testbed",
    "add_provider_ldns",
    "build_testbed",
]
