"""Deterministic discrete-event network simulator.

The simulator is the substrate that stands in for the paper's physical
testbed (USRP radios, srsLTE, a LAN, and the public Internet).  It provides:

* :mod:`repro.netsim.engine` — event loop, futures, and generator-based
  processes (``yield delay`` / ``yield future``).
* :mod:`repro.netsim.rand` — named, reproducible random streams.
* :mod:`repro.netsim.latency` — latency distribution models used to
  calibrate each link type.
* :mod:`repro.netsim.packet` / :mod:`.node` / :mod:`.link` /
  :mod:`.network` — datagrams, hosts, links, and a routed topology with
  middlebox (NAT) support.  A host's ``crossings`` list records when
  datagrams pass it (the paper uses tcpdump at the P-GW to split
  wireless vs. resolver time).
* :mod:`repro.netsim.socket` — UDP-style sockets with request/timeout
  semantics.

All times are milliseconds; all randomness flows from one seed.
"""

from repro.netsim.engine import (Simulator, SimFuture, ProcessFailed,
                                 observe_simulators)
from repro.netsim.rand import RandomStreams
from repro.netsim.latency import (
    LatencyModel,
    Constant,
    Uniform,
    Normal,
    LogNormal,
    Gamma,
    Empirical,
    Compound,
    lognormal_from_median_p95,
)
from repro.netsim.packet import Datagram, Endpoint
from repro.netsim.node import Host, Middlebox
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.socket import UdpSocket

__all__ = [
    "Simulator",
    "SimFuture",
    "ProcessFailed",
    "observe_simulators",
    "RandomStreams",
    "LatencyModel",
    "Constant",
    "Uniform",
    "Normal",
    "LogNormal",
    "Gamma",
    "Empirical",
    "Compound",
    "lognormal_from_median_p95",
    "Datagram",
    "Endpoint",
    "Host",
    "Middlebox",
    "Link",
    "Network",
    "UdpSocket",
]
