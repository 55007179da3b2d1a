"""Public-IP accounting for the spatial-reuse argument.

The paper's §3 (P2) and §5: exposing every MEC application (each CDN
customer's domains, the L-DNS, the C-DNS, the caches) with a dedicated
public IP would need "huge" address space at every edge site; the proposed
design lets mobile clients interact with all of it through the cluster IP
bound to the MEC L-DNS, reusing the same public addresses at every site
("spatial reuse of IP addresses available at MEC akin to spatial reuse of
spectrum in 5G").

:class:`PublicIpPlan` computes both plans for a deployment inventory, so
the ablation benchmark can report the savings.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class SiteInventory(NamedTuple):
    """What one MEC site hosts."""

    site: str
    cdn_domains: int        # delivery domains of all CDN customers
    cache_servers: int
    routers: int            # C-DNS instances
    ldns_instances: int


class IpPlanResult(NamedTuple):
    """Public IPs needed under each addressing plan."""

    dedicated_per_site: Dict[str, int]
    dedicated_total: int
    shared_per_site: Dict[str, int]
    shared_total: int


class PublicIpPlan:
    """Compares dedicated-IP and shared-cluster-IP addressing."""

    #: Public IPs per site under the shared design: just the MEC L-DNS
    #: cluster IP that clients talk to.
    SHARED_IPS_PER_SITE = 1

    def __init__(self, sites: List[SiteInventory]) -> None:
        self.sites = list(sites)

    @staticmethod
    def dedicated_ips(site: SiteInventory) -> int:
        """One public IP per exposed component, today's practice."""
        return (site.cdn_domains + site.cache_servers
                + site.routers + site.ldns_instances)

    def evaluate(self) -> IpPlanResult:
        """Compute both addressing plans for the site inventory."""
        dedicated = {site.site: self.dedicated_ips(site)
                     for site in self.sites}
        shared = {site.site: self.SHARED_IPS_PER_SITE for site in self.sites}
        return IpPlanResult(
            dedicated_per_site=dedicated,
            dedicated_total=sum(dedicated.values()),
            shared_per_site=shared,
            shared_total=sum(shared.values()),
        )
