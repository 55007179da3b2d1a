"""The paper's contribution: MEC-CDN assembly and evaluated deployments.

* :mod:`repro.core.meccdn` — :class:`MecCdnSite` wires the orchestrator,
  CoreDNS L-DNS (split namespace, stub domain), the ATC-style C-DNS, and
  cache pods into the Figure 4 system.
* :mod:`repro.core.deployments` — the LTE testbed and the six DNS
  deployment options evaluated in Figure 5.
"""
