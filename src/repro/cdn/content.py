"""Content catalog and request workloads.

Content items are the static objects (``.img``, ``.js``, ``.css``, video
segments) the paper's Table 1 sites serve through CDN domains.  The
catalog indexes them by URL; :class:`ZipfRankStream` generates the
popularity-skewed request streams CDN evaluations conventionally use:
an exact Zipf(s) rank sampler that never materializes per-item weight
tables, so the population workload engine can draw from 10^7-object
synthetic catalogs without building 10^7-entry lists.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List

from repro.dnswire.name import Name
from repro.errors import ContentNotFound


class ContentItem:
    """One cacheable object, addressed by a URL under a CDN domain."""

    __slots__ = ("url", "domain", "path", "size_bytes", "content_id")

    def __init__(self, domain: Name, path: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError(f"content size must be positive, got {size_bytes}")
        if not path.startswith("/"):
            raise ValueError(f"path must start with '/', got {path!r}")
        self.domain = domain
        self.path = path
        self.size_bytes = size_bytes
        self.url = f"http://{domain.to_text().rstrip('.')}{path}"
        self.content_id = self.url

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContentItem):
            return NotImplemented
        return self.content_id == other.content_id

    def __hash__(self) -> int:
        return hash(self.content_id)

    def __repr__(self) -> str:
        return f"ContentItem({self.url}, {self.size_bytes}B)"


class ContentCatalog:
    """All content a CDN deployment knows about, indexed by URL and domain."""

    def __init__(self) -> None:
        self._by_url: Dict[str, ContentItem] = {}
        self._by_domain: Dict[Name, List[ContentItem]] = {}

    def add(self, item: ContentItem) -> ContentItem:
        """Register an existing item in the catalog indexes."""
        self._by_url[item.url] = item
        self._by_domain.setdefault(item.domain, []).append(item)
        return item

    def add_object(self, domain: Name, path: str, size_bytes: int) -> ContentItem:
        """Create and register a new item under ``domain``."""
        return self.add(ContentItem(domain, path, size_bytes))

    def by_url(self, url: str) -> ContentItem:
        """The item at ``url``; raises ContentNotFound if absent."""
        try:
            return self._by_url[url]
        except KeyError:
            raise ContentNotFound(f"no content at {url}") from None

    def under_domain(self, suffix: Name) -> List[ContentItem]:
        """Items whose domain equals or sits below ``suffix``.

        A CDN delivery service owns a whole sub-tree (e.g. everything
        under ``mycdn.ciab.test``), so placement matches by suffix.
        """
        return [item for domain, items in self._by_domain.items()
                if domain.is_subdomain_of(suffix) for item in items]

    def populate_synthetic(self, domain: Name, count: int,
                           rng: random.Random,
                           min_bytes: int = 2_000,
                           max_bytes: int = 2_000_000) -> List[ContentItem]:
        """Add ``count`` synthetic objects with log-uniform sizes."""
        items = []
        for index in range(count):
            log_size = rng.uniform(math.log(min_bytes), math.log(max_bytes))
            items.append(self.add_object(
                domain, f"/static/obj{index:05d}", int(math.exp(log_size))))
        return items


class ZipfRankStream:
    """An exact Zipf(s) rank sampler in O(1) memory.

    Draws ranks in ``1..n`` with ``P(rank=k) ∝ k^(-s)`` by rejection
    against the continuous envelope ``x^(-s)`` on ``[1, n+1)``: invert
    the envelope's CDF, floor to an integer candidate, and accept with
    the (monotone, ≤1) ratio of the discrete mass to the envelope mass
    over the candidate's unit cell.  Unlike the inverse-CDF table walk,
    nothing here scales with ``n`` — no weight list, no cumulative
    array — so a 10^7-object catalog costs the same as a 10-object one.
    Valid for any exponent ``s > 0`` (both branches of the envelope
    integral are handled, including ``s = 1``).
    """

    __slots__ = ("n", "exponent", "_rng", "_one_minus_s", "_logarithmic",
                 "_total", "_cell_one")

    def __init__(self, n: int, rng: random.Random,
                 exponent: float = 0.9) -> None:
        if n < 1:
            raise ValueError(f"rank stream needs n >= 1, got {n}")
        if exponent <= 0:
            raise ValueError(f"Zipf exponent must be positive, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        self._one_minus_s = 1.0 - exponent
        #: Whether the envelope integral takes its s = 1 branch; decided
        #: here so the draw loops below never test for it.
        self._logarithmic = abs(self._one_minus_s) < 1e-12
        #: Envelope mass over [1, n+1): integral of x^(-s).
        self._total = self._integral(float(n + 1))
        #: Envelope mass over the first unit cell [1, 2) — the rejection
        #: ratio's normalizer (the ratio is maximal at rank 1).
        self._cell_one = self._integral(2.0)

    def _integral(self, x: float) -> float:
        """∫_1^x t^(-s) dt, with the s = 1 logarithmic branch."""
        if self._logarithmic:
            return math.log(x)
        return (x ** self._one_minus_s - 1.0) / self._one_minus_s

    def next_rank(self) -> int:
        """Draw one rank in ``1..n`` (1 = most popular).

        Each candidate inverts the envelope CDF at a uniform draw
        (``x`` with ∫_1^x t^(-s) dt = u · total), floors it to a rank
        ``k``, and accepts with the discrete-to-envelope mass ratio over
        ``[k, k+1)``.  The integral and its inverse are written out in
        the loop: this runs once per simulated query.
        """
        n = self.n
        if n == 1:
            return 1
        if self._logarithmic:
            return self._next_rank_logarithmic()
        rand = self._rng.random
        one_minus_s = self._one_minus_s
        inverse_power = 1.0 / one_minus_s
        minus_s = -self.exponent
        total = self._total
        cell_one = self._cell_one
        while True:
            x = (1.0 + rand() * total * one_minus_s) ** inverse_power
            k = int(x)
            if k < 1:
                k = 1
            elif k > n:
                k = n
            cell = ((float(k + 1) ** one_minus_s - 1.0) / one_minus_s
                    - (float(k) ** one_minus_s - 1.0) / one_minus_s)
            # target/envelope ratio, normalized by its maximum (rank 1).
            if rand() <= (k ** minus_s) * cell_one / cell:
                return k

    def _next_rank_logarithmic(self) -> int:
        """:meth:`next_rank` for s = 1, where ∫ t^(-1) dt = log."""
        n = self.n
        rand = self._rng.random
        minus_s = -self.exponent
        total = self._total
        cell_one = self._cell_one
        while True:
            k = int(math.exp(rand() * total))
            if k < 1:
                k = 1
            elif k > n:
                k = n
            cell = math.log(float(k + 1)) - math.log(float(k))
            if rand() <= (k ** minus_s) * cell_one / cell:
                return k

    def ranks(self, count: int) -> Iterator[int]:
        """Yield ``count`` successive ranks."""
        for _ in range(count):
            yield self.next_rank()
