"""Deterministic trace sampling and tail-exemplar capture.

Population-scale runs (:mod:`repro.workload.engine`) stream 10^6+
queries; retaining a span tree per query is out of the question, and
drawing a random number per query to decide what to keep would change
the RNG stream — breaking the byte-identical replay contract.  Both
problems dissolve with the two primitives here:

* **hash sampling** — the keep/drop decision is a pure function of a
  stable key (a trace id, a session id): :func:`hash_unit` maps the key
  to ``[0, 1)`` through SHA-256 and :class:`HeadSampler` compares it to
  the configured rate.  No RNG draw, no wall clock, and the same key
  always makes the same decision on every backend and every shard.
* **tail exemplars** — a :class:`TailReservoir` keeps the top-K
  *slowest* queries as compact :class:`Exemplar` records (total plus a
  per-stage breakdown).  Top-K under a strict total order is
  merge-order independent, so per-shard reservoirs folded in spec order
  reproduce the serial reservoir byte for byte.  The stored exemplars
  are what ``repro tail`` prints.

Keys must be unique within a run (the engine builds them from the
deployment/district/UE/session/query coordinates), which is what makes
``(-total_ms, key)`` a *strict* total order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

_MASK64 = (1 << 64) - 1
_SCALE = float(1 << 64)


def hash_unit(key: str) -> float:
    """Map ``key`` to a deterministic float in ``[0, 1)`` via SHA-256."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / _SCALE


def hash_unit_u64(value: int) -> float:
    """Map an integer id to ``[0, 1)`` with a splitmix64 finalizer.

    An order of magnitude cheaper than :func:`hash_unit`; the engine
    uses it where the key is already a dense integer (per-session
    sampling at mesoscale).  Same guarantees: no RNG, no clock, stable
    across processes and platforms.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value / _SCALE


class HeadSampler:
    """Keep/drop decisions as a pure function of the trace key."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate

    def keep_id(self, value: int) -> bool:
        """Whether the trace with integer id ``value`` is sampled in
        (splitmix64 hash)."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        return hash_unit_u64(value) < self.rate

    def __repr__(self) -> str:
        return f"HeadSampler(rate={self.rate})"


class Exemplar(NamedTuple):
    """One retained query: total latency plus per-stage attribution."""

    #: Unique, deterministic identity (deployment/district/UE/... path).
    key: str
    total_ms: float
    #: Simulated start time of the query, ms.
    t_ms: float
    #: ``(stage name, milliseconds)`` in critical-path order.
    stages: Tuple[Tuple[str, float], ...]
    #: Flat string attributes (deployment, site, hit/miss, ...).
    attrs: Tuple[Tuple[str, str], ...] = ()

    def sort_key(self) -> Tuple[float, str]:
        """The reservoir's strict total order: slowest first."""
        return (-self.total_ms, self.key)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-artifact form of this exemplar."""
        return {"key": self.key, "total_ms": self.total_ms,
                "t_ms": self.t_ms,
                "stages": [[name, ms] for name, ms in self.stages],
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Exemplar":
        """Rebuild an exemplar from its :meth:`to_dict` form."""
        return cls(key=str(data["key"]),
                   total_ms=float(data["total_ms"]),
                   t_ms=float(data.get("t_ms", 0.0)),
                   stages=tuple((str(name), float(ms))
                                for name, ms in data.get("stages", [])),
                   attrs=tuple(sorted((str(k), str(v)) for k, v
                                      in data.get("attrs", {}).items())))


class TailReservoir:
    """Bounded top-K (slowest) exemplar store, merge-order independent.

    ``offer`` is O(1) amortised: candidates append to a buffer that is
    compacted (sort + truncate) whenever it doubles past capacity, and
    once the reservoir has seen ``capacity`` entries a threshold lets
    the hot path reject obviously-fast queries with one comparison
    (:attr:`threshold_ms`).  Because the final contents are "the K
    smallest under a strict total order", the result is identical no
    matter how offers are ordered or how per-shard reservoirs are
    merged — the property the sharded executor's spec-order merge
    turns into byte-identical artifacts.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._items: List[Exemplar] = []
        #: Totals strictly below this can never enter the reservoir.
        #: ``None`` until the reservoir has compacted at capacity at
        #: least once; afterwards it is the K-th slowest total as of the
        #: last compaction — a safe (conservative) rejection bound
        #: between compactions.  A plain attribute (not a property) so
        #: the engine's hot loop can guard its ``offer`` calls with one
        #: attribute load.
        self.threshold_ms: Optional[float] = None
        #: Total count ever offered (including rejected), for reporting.
        self.offered = 0

    def offer(self, exemplar: Exemplar) -> None:
        """Consider one exemplar for retention."""
        self.offered += 1
        if self.capacity == 0:
            return
        threshold = self.threshold_ms
        if threshold is not None and exemplar.total_ms < threshold:
            return
        self._items.append(exemplar)
        if len(self._items) >= 2 * self.capacity:
            self._compact()

    def items(self) -> List[Exemplar]:
        """The retained exemplars, slowest first (at most ``capacity``)."""
        self._compact()
        return list(self._items)

    def merge(self, other: "TailReservoir") -> None:
        """Fold another reservoir's retained exemplars into this one."""
        self._items.extend(other._items)
        self.offered += other.offered
        self._compact()

    def _compact(self) -> None:
        self._items.sort(key=Exemplar.sort_key)
        del self._items[self.capacity:]
        if len(self._items) >= self.capacity and self.capacity > 0:
            self.threshold_ms = self._items[-1].total_ms
        # Below capacity the threshold stays None: everything is kept.

    def __len__(self) -> int:
        self._compact()
        return len(self._items)

    def __repr__(self) -> str:
        return (f"TailReservoir({len(self)}/{self.capacity} kept, "
                f"{self.offered} offered)")
