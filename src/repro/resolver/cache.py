"""A TTL-aware DNS cache with positive and negative entries.

Keys are ``(name, rtype)``.  Positive entries store full resource records
and serve them back with decremented TTLs.  Negative entries (RFC 2308)
store the NXDOMAIN/NODATA status with the TTL taken from the zone SOA's
minimum field.  Capacity is bounded with LRU eviction.

The paper's Figure 2 analysis notes that popular CDN domains are answered
from L-DNS caches ("the A records TTL never expires at L-DNS"), so cache
behaviour is directly load-bearing for the reproduction.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import SOA
from repro.dnswire.types import RecordType

#: Cap on stored TTLs; long TTLs are clamped as real resolvers do.
MAX_TTL = 86400
#: Floor applied when inserting, so zero-TTL records are still usable once.
MIN_POSITIVE_TTL = 0
#: TTL stamped on stale answers (RFC 8767 §5.2 recommends 30 seconds).
STALE_ANSWER_TTL = 30
#: How long past expiry an entry stays usable for serve-stale (RFC 8767
#: suggests one to three days; a conservative hour here).
MAX_STALE_TTL = 3600
#: Negative TTL for a response that carries no SOA.
DEFAULT_NEGATIVE_TTL = 60


def negative_ttl(response: Message) -> int:
    """RFC 2308 §5: the lesser of the authority SOA's TTL and minimum."""
    for record in response.authorities:
        if record.rtype == RecordType.SOA and isinstance(record.rdata, SOA):
            return min(record.rdata.minimum, record.ttl)
    return DEFAULT_NEGATIVE_TTL


class CacheOutcome(enum.Enum):
    """What the cache knows about a (name, rtype)."""

    MISS = "miss"
    HIT = "hit"
    NEGATIVE_NXDOMAIN = "nxdomain"
    NEGATIVE_NODATA = "nodata"


class CacheAnswer:
    """The result of a cache probe."""

    __slots__ = ("outcome", "records", "stale")

    def __init__(self, outcome: CacheOutcome,
                 records: Optional[List[ResourceRecord]] = None,
                 stale: bool = False) -> None:
        self.outcome = outcome
        self.records = records or []
        self.stale = stale

    def __repr__(self) -> str:
        flavor = " stale" if self.stale else ""
        return (f"CacheAnswer({self.outcome.value},"
                f" {len(self.records)} records{flavor})")


_Key = Tuple[Name, RecordType]


class _PositiveEntry:
    __slots__ = ("records", "expires_at")

    def __init__(self, records: List[ResourceRecord], expires_at: float) -> None:
        self.records = records
        self.expires_at = expires_at


class _NegativeEntry:
    __slots__ = ("outcome", "expires_at")

    def __init__(self, outcome: CacheOutcome, expires_at: float) -> None:
        self.outcome = outcome
        self.expires_at = expires_at


class DnsCache:
    """Bounded LRU cache of RRsets and negative answers.

    With ``serve_stale`` enabled (RFC 8767), expired positive entries are
    retained for :data:`MAX_STALE_TTL` seconds past expiry; :meth:`get` still
    reports a MISS for them (resolution must be *attempted*), but
    :meth:`get_stale` serves them when the attempt fails.
    """

    def __init__(self, max_entries: int = 100_000,
                 serve_stale: bool = False) -> None:
        if max_entries <= 0:
            raise ValueError("cache capacity must be positive")
        self.max_entries = max_entries
        self.serve_stale = serve_stale
        self._positive: "OrderedDict[_Key, _PositiveEntry]" = OrderedDict()
        self._negative: "OrderedDict[_Key, _NegativeEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.stale_hits = 0

    def __len__(self) -> int:
        return len(self._positive) + len(self._negative)

    # -- insertion ---------------------------------------------------------------

    def put_records(self, records: List[ResourceRecord], now: float) -> None:
        """Insert records, grouped into RRsets by (owner, type)."""
        grouped: Dict[_Key, List[ResourceRecord]] = {}
        for record in records:
            if record.rtype == RecordType.OPT:
                continue
            grouped.setdefault((record.name, record.rtype), []).append(record)
        for key, rrset in grouped.items():
            ttl = min(min(record.ttl for record in rrset), MAX_TTL)
            self._negative.pop(key, None)
            self._positive[key] = _PositiveEntry(rrset, now + ttl * 1000.0)
            self._positive.move_to_end(key)
            self._evict_if_needed()

    def put_negative(self, name: Name, rtype: RecordType,
                     outcome: CacheOutcome, ttl: int, now: float) -> None:
        """Insert an NXDOMAIN/NODATA entry with the SOA-derived TTL."""
        if outcome not in (CacheOutcome.NEGATIVE_NXDOMAIN,
                           CacheOutcome.NEGATIVE_NODATA):
            raise ValueError(f"{outcome} is not a negative outcome")
        key = (name, rtype)
        self._positive.pop(key, None)
        self._negative[key] = _NegativeEntry(
            outcome, now + min(ttl, MAX_TTL) * 1000.0)
        self._negative.move_to_end(key)
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        while len(self) > self.max_entries:
            if self._negative:
                self._negative.popitem(last=False)
            else:
                self._positive.popitem(last=False)

    # -- probing ------------------------------------------------------------------

    def get(self, name: Name, rtype: RecordType, now: float) -> CacheAnswer:
        """Probe the cache; TTLs in returned records are decremented."""
        key = (name, rtype)
        positive = self._positive.get(key)
        if positive is not None:
            if positive.expires_at <= now:
                if not self._usable_stale(positive, now):
                    del self._positive[key]
            else:
                self._positive.move_to_end(key)
                self.hits += 1
                remaining = int((positive.expires_at - now) / 1000.0)
                return CacheAnswer(
                    CacheOutcome.HIT,
                    [record.with_ttl(remaining) for record in positive.records])
        negative = self._negative.get(key)
        if negative is not None:
            if negative.expires_at <= now:
                del self._negative[key]
            else:
                self._negative.move_to_end(key)
                self.negative_hits += 1
                return CacheAnswer(negative.outcome)
        # NXDOMAIN for the name under any type implies NXDOMAIN for all types.
        for (cached_name, _), entry in self._negative.items():
            if (cached_name == name and entry.expires_at > now
                    and entry.outcome == CacheOutcome.NEGATIVE_NXDOMAIN):
                self.negative_hits += 1
                return CacheAnswer(CacheOutcome.NEGATIVE_NXDOMAIN)
        self.misses += 1
        return CacheAnswer(CacheOutcome.MISS)

    def get_stale(self, name: Name, rtype: RecordType,
                  now: float) -> CacheAnswer:
        """Serve an expired entry after a failed resolution attempt.

        RFC 8767: resolution must have been attempted (and failed) before
        stale data is used, so callers probe :meth:`get` first, go
        upstream on MISS, and only fall back here.  Stale records carry
        :data:`STALE_ANSWER_TTL`; entries older than :data:`MAX_STALE_TTL`
        are gone.  A still-fresh entry is served normally.
        """
        key = (name, rtype)
        entry = self._positive.get(key)
        if entry is None:
            return CacheAnswer(CacheOutcome.MISS)
        if entry.expires_at > now:
            self.hits += 1
            remaining = int((entry.expires_at - now) / 1000.0)
            return CacheAnswer(
                CacheOutcome.HIT,
                [record.with_ttl(remaining) for record in entry.records])
        if not self._usable_stale(entry, now):
            del self._positive[key]
            return CacheAnswer(CacheOutcome.MISS)
        self.stale_hits += 1
        return CacheAnswer(
            CacheOutcome.HIT,
            [record.with_ttl(STALE_ANSWER_TTL) for record in entry.records],
            stale=True)

    def _usable_stale(self, entry: _PositiveEntry, now: float) -> bool:
        return (self.serve_stale
                and now < entry.expires_at + MAX_STALE_TTL * 1000.0)

    def __repr__(self) -> str:
        return (f"DnsCache({len(self._positive)} positive, "
                f"{len(self._negative)} negative, hits={self.hits}, "
                f"misses={self.misses})")
