"""Staleness accounting: updates on one side, answers on the other.

The monitor is pure bookkeeping — it observes registry updates and
measured answers and derives the churn experiment's three quantities:

* **staleness window** per update: from the update's timestamp to the
  *last* answer that still carried an address the update removed (and
  which never came back).  Zero when no stale answer was ever served;
* **mislocalization during churn**: of the answers served while a zone
  version was still in flight, how many pointed somewhere not live;
* the **serve-stale overlap** is counted at the CoreDNS cache plugin
  (``stale_served_during_churn``); the monitor only defines the window
  via the callable handed to it.

"Live" is the churn driver's ground truth at answer time, so an
address that is removed and later re-added stops extending windows the
moment it is back.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netsim.network import Network

from repro.control.registry import ZoneUpdate


class _UpdateState:
    """Window bookkeeping for one registry update."""

    __slots__ = ("update", "last_stale_answer")

    def __init__(self, update: ZoneUpdate) -> None:
        self.update = update
        self.last_stale_answer: Optional[float] = None

    @property
    def window_ms(self) -> float:
        if self.last_stale_answer is None:
            return 0.0
        return self.last_stale_answer - self.update.time


class StalenessMonitor:
    """Derives staleness windows and mislocalization from observations."""

    def __init__(self, network: Network,
                 live: Callable[[], Sequence[str]],
                 in_window: Callable[[], bool],
                 scope: str = "") -> None:
        self.network = network
        self._live = live
        self._in_window = in_window
        #: Deployment label stamped on the monitor's time-series (the
        #: control plane passes its testbed key); empty means unscoped.
        self.scope = scope
        self._updates: Dict[int, _UpdateState] = {}
        self.lookups = 0
        self.answered = 0
        self.mislocalized = 0
        self.lookups_in_window = 0
        self.mislocalized_in_window = 0

    # -- observation inputs -------------------------------------------------

    def note_update(self, update: ZoneUpdate) -> None:
        """Record a registry update (subscribe this to the registry)."""
        self._updates[update.serial] = _UpdateState(update)

    def note_answer(self, time: float, addresses: Sequence[str],
                    stale: bool = False) -> bool:
        """Record one measured answer; returns whether it mislocalized.

        An answer mislocalizes when any address it carries is not in
        the live endpoint set at answer time.  Empty answers (timeouts,
        SERVFAIL) are lookups but never mislocalizations — pointing
        nowhere is a different failure than pointing somewhere wrong.
        """
        live = set(self._live())
        in_window = self._in_window()
        mislocalized = bool(addresses) and any(address not in live
                                               for address in addresses)
        self.lookups += 1
        if addresses:
            self.answered += 1
        if mislocalized:
            self.mislocalized += 1
        if in_window:
            self.lookups_in_window += 1
            if mislocalized:
                self.mislocalized_in_window += 1
        for state in self._updates.values():
            if time >= state.update.time and any(
                    address in state.update.removed and address not in live
                    for address in addresses):
                state.last_stale_answer = time
        tel = self.network.telemetry
        if tel is not None:
            tel.metrics.counter(
                "repro_control_answers_observed_total",
                "answers judged by the staleness monitor").inc(
                    mislocalized=str(mislocalized), stale=str(stale),
                    in_window=str(in_window))
            # Windowed counts are what the SLO burn-rate rules consume:
            # a mislocalization burst shows up as a spike in the
            # mislocalized series against the answers series.
            tel.timeseries.count("repro_control_answers", time,
                                 deployment=self.scope)
            if mislocalized:
                tel.timeseries.count("repro_control_mislocalized", time,
                                     deployment=self.scope)
        return mislocalized

    # -- derived quantities -------------------------------------------------

    def windows_ms(self) -> List[Tuple[int, float]]:
        """(serial, staleness window ms) per update, in update order."""
        return [(serial, self._updates[serial].window_ms)
                for serial in sorted(self._updates)]

    @property
    def max_staleness_ms(self) -> float:
        windows = [window for _, window in self.windows_ms()]
        return max(windows) if windows else 0.0

    @property
    def mean_staleness_ms(self) -> float:
        windows = [window for _, window in self.windows_ms()]
        return (reduce(add, windows, 0) / len(windows) if windows
                else 0.0)

    @property
    def mislocalization_rate(self) -> float:
        """Mislocalized fraction of all answered lookups."""
        return self.mislocalized / self.answered if self.answered else 0.0

    def __repr__(self) -> str:
        return (f"StalenessMonitor({self.lookups} lookups, "
                f"{self.mislocalized} mislocalized, "
                f"max window {self.max_staleness_ms:.1f} ms)")
