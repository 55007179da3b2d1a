"""Mobile access network substrate: UE, RAN, EPC, NAT, handoff.

Stands in for the paper's srsLTE + NextEPC testbed:

* :mod:`repro.mobile.profiles` — per-technology latency calibrations
  (wired campus, home Wi-Fi, 4G LTE, 5G NR).  The LTE radio leg is
  centred on the ~10 ms one-way delay the paper measures in §4.
* :mod:`repro.mobile.nat` — the P-GW NAT that hides client IPs behind a
  shared public gateway address, the root of the geo-localization problem
  in §2.
* :mod:`repro.mobile.ran` / :mod:`.core` / :mod:`.ue` — base stations,
  the S-GW/P-GW bearer path, and user equipment.
* :mod:`repro.mobile.handoff` — X2-style handoff that re-links the UE and
  (per the paper's §3 design) re-targets its DNS to the new edge.
"""
