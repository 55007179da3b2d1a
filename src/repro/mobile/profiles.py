"""Access-technology latency profiles.

Each profile calibrates two legs of the access path:

* ``radio`` — UE to attachment point (Ethernet jack, Wi-Fi AP, eNB/gNB),
  one-way;
* ``access_backhaul`` — attachment point to the network gateway (campus
  router, home ISP CMTS, S-GW/P-GW bearer), one-way.

Calibration sources: the paper measures the LTE radio leg at roughly
10 ms one-way on its srsLTE testbed (§4) and Figure 2 shows the ordering
wired < wifi < cellular with markedly higher cellular variance.  The
wired/Wi-Fi values follow common campus/home measurements; what the
experiments rely on is the *ordering and spread*, not the exact numbers.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.netsim.latency import (
    Constant,
    LatencyModel,
    lognormal_from_median_p95,
)


class AccessProfile(NamedTuple):
    """Latency calibration for one access technology."""

    name: str
    radio: LatencyModel
    access_backhaul: LatencyModel
    description: str


WIRED_CAMPUS = AccessProfile(
    name="wired-campus",
    radio=Constant(0.2),
    access_backhaul=lognormal_from_median_p95(0.8, 2.0),
    description="Ethernet to a campus aggregation router",
)

WIFI_HOME = AccessProfile(
    name="wifi-home",
    radio=lognormal_from_median_p95(2.5, 12.0),
    access_backhaul=lognormal_from_median_p95(4.0, 10.0),
    description="Home Wi-Fi through a residential ISP",
)

CELLULAR_LTE = AccessProfile(
    name="cellular-mobile",
    # ~10 ms one-way radio with a heavy tail (srsLTE measurement, §4).
    radio=lognormal_from_median_p95(10.0, 28.0, shift=4.0),
    access_backhaul=lognormal_from_median_p95(5.0, 18.0),
    description="4G LTE radio plus EPC bearer path",
)

CELLULAR_5G = AccessProfile(
    name="cellular-5g",
    # 5G NR targets ~1-4 ms over the air; the paper argues the wireless
    # component of the MEC bar shrinks drastically under 5G.
    radio=lognormal_from_median_p95(1.5, 4.0, shift=0.5),
    access_backhaul=lognormal_from_median_p95(1.0, 3.0),
    description="5G NR radio plus 5GC bearer path",
)

PROFILES: Dict[str, AccessProfile] = {
    profile.name: profile
    for profile in (WIRED_CAMPUS, WIFI_HOME, CELLULAR_LTE, CELLULAR_5G)
}
