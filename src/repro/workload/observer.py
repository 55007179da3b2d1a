"""What a population district reports beside its result.

The kernel (:func:`repro.workload.engine.run_district`) decides and
draws; this module watches.  When ambient telemetry is installed the
kernel forms one :data:`QueryRecord` per query, collects a session's
records in issue order, and hands the list to a
:class:`_DistrictObserver` **once per session**; at the end of the
district it calls :meth:`_DistrictObserver.close` once with the exact
counters.  From those records the observer streams

* **windowed time-series** — per simulated-time window, the raw
  ``dns_ms`` / ``total_ms`` values (bucketed once at close) and per-site
  query / mislocalized counts;
* **head-sampled session trees** — a root ``session`` span plus one
  ``query`` span per request, kept or dropped by a splitmix64 hash of
  the session ordinal, so serial and sharded runs sample the exact same
  sessions;
* **tail exemplars** — the slowest queries with their per-stage
  breakdown, offered to the facade's reservoir.

Nothing here draws randomness or reads a clock, and nothing flows back
to the kernel: :class:`~repro.workload.engine.DistrictStats` (hence
every digest) is byte-identical with telemetry on or off.

The once-per-session contract is what makes the hand-off safe: the
tail's rejection threshold and the tracer's id high-water marks are
read once per session, and nothing else touches the tail or the tracer
between a session's first query and its ingest.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.telemetry import Exemplar, HeadSampler, Span, Telemetry, hash_unit
from repro.telemetry.metrics import BucketCell

#: One query as the kernel decided it, in this field order:
#: ``(start_s, site, served_site, hit, dns_ms, total_ms, wireless_ms,
#: resolver_ms, interruption_ms, fetch_ms, origin_ms)``.  ``site`` is
#: where the UE is, ``served_site`` where the selected cache is; the
#: last five are the stages ``total_ms`` sums (``dns_ms`` is the first
#: three of them), zero where a stage did not occur.
QueryRecord = Tuple[float, int, int, bool, float, float,
                    float, float, float, float, float]


class _Window(NamedTuple):
    """One simulated-time window of one district."""

    #: Raw values in arrival order; bucketed once, at close.
    dns_ms: List[float]
    total_ms: List[float]
    #: Counts indexed by the UE's site.
    queries: List[int]
    mislocalized: List[int]


class _DistrictObserver:
    """Windows, sampled session trees and tail exemplars of one district.

    ``scope`` names the district in exemplar keys and salts the session
    sampler, so session ordinals hash independently across districts.
    """

    def __init__(self, tel: Telemetry, sites: int, deployment: str,
                 scope: str) -> None:
        self._tel = tel
        self._deployment = deployment
        self._scope = scope
        #: Interned once: small-int site labels recur on every span.
        self._site_strs = [str(site) for site in range(sites)]
        self._tracing = tel.tracer.sample_rate > 0.0
        self._sampler = HeadSampler(tel.tracer.sample_rate)
        self._salt = int(hash_unit(scope) * 9007199254740992.0)
        self._sessions = 0
        self._sampled_queries = 0
        window_ms = tel.timeseries.window_ms
        #: Windows per simulated second, and a window's width in seconds.
        self._win_scale = 1000.0 / window_ms
        self._window_s = window_ms / 1000.0
        self._windows: Dict[int, _Window] = {}
        #: The window the last query fell in and its ``[lo, hi)`` bounds
        #: in seconds — an empty interval until the first query.
        self._current = 0
        self._win_lo = float("inf")
        self._win_hi = float("-inf")

    def session(self, ue: int, ordinal: int, home_site: int,
                records: List[QueryRecord]) -> None:
        """Fold in UE ``ue``'s ``ordinal``-th session (1-based), whose
        queries are ``records`` in issue order (never empty)."""
        self._sessions += 1
        if self._tracing and self._sampler.keep_id(
                self._salt + self._sessions):
            self._trace(ue, home_site, records)
        tail = self._tel.tail
        tail_enabled = tail.capacity > 0
        # The rejection threshold only ever rises, so a session-stale
        # read can over-offer (offer() rechecks) but never miss a
        # genuine tail candidate.
        threshold = tail.threshold_ms
        dns_vals, total_vals, queries, mislocalized = self._enter(
            records[0][0])
        win_lo = self._win_lo
        win_hi = self._win_hi
        for query, (start, site, served_site, hit, dns_ms, total_ms,
                    wireless_ms, resolver_ms, interruption_ms, fetch_ms,
                    origin_ms) in enumerate(records):
            if start >= win_hi or start < win_lo:
                dns_vals, total_vals, queries, mislocalized = self._enter(
                    start)
                win_lo = self._win_lo
                win_hi = self._win_hi
            dns_vals.append(dns_ms)
            total_vals.append(total_ms)
            queries[site] += 1
            if served_site != site:
                mislocalized[site] += 1
            if tail_enabled and (threshold is None or total_ms >= threshold):
                stages = [("dns.wireless", wireless_ms),
                          ("dns.resolver", resolver_ms)]
                if interruption_ms:
                    stages.append(("handover", interruption_ms))
                stages.append(("fetch", fetch_ms))
                if origin_ms:
                    stages.append(("origin", origin_ms))
                tail.offer(Exemplar(
                    key=f"{self._scope}/u{ue}/s{ordinal}/q{query}",
                    total_ms=total_ms, t_ms=start * 1000.0,
                    stages=tuple(stages),
                    attrs=(("deployment", self._deployment),
                           ("hit", "1" if hit else "0"),
                           ("served_site", self._site_strs[served_site]),
                           ("site", self._site_strs[site]))))

    def close(self, queries: int, hits: int, localized: int,
              sessions: int, handovers: int) -> None:
        """Flush the district into the facade (once, after the last
        session) with the kernel's exact counters."""
        tel = self._tel
        deployment = self._deployment
        windows = self._windows
        if windows:
            label = {"deployment": deployment}
            tel.timeseries.bulk_observe(
                "repro_workload_dns_ms", label,
                {at: BucketCell.from_values(window.dns_ms)
                 for at, window in windows.items()})
            tel.timeseries.bulk_observe(
                "repro_workload_total_ms", label,
                {at: BucketCell.from_values(window.total_ms)
                 for at, window in windows.items()})
        for name, rows in (
                ("repro_workload_queries",
                 {at: window.queries for at, window in windows.items()}),
                ("repro_workload_mislocalized",
                 {at: window.mislocalized
                  for at, window in windows.items()})):
            for site, site_str in enumerate(self._site_strs):
                counts = {at: row[site] for at, row in rows.items()
                          if row[site]}
                if counts:
                    tel.timeseries.bulk_count(
                        name, {"deployment": deployment, "site": site_str},
                        counts)
        if self._tracing:
            tel.tracer.sampled_out += queries - self._sampled_queries
        for name, text, amount in (
                ("repro_workload_queries_total",
                 "Queries driven by the population engine", queries),
                ("repro_workload_hits_total",
                 "Cache hits at the selected cache", hits),
                ("repro_workload_mislocalized_total",
                 "Queries served from a cache off the UE's site",
                 queries - localized),
                ("repro_workload_sessions_total",
                 "Sessions the arrival process produced", sessions),
                ("repro_workload_handovers_total",
                 "Mid-session inter-site handovers", handovers)):
            tel.metrics.counter(name, text).inc(amount, deployment=deployment)

    def _enter(self, start: float) -> _Window:
        """The window holding simulated second ``start``: the current
        one while ``start`` is inside its bounds, recomputed (and
        created on first touch) on a crossing."""
        if start >= self._win_hi or start < self._win_lo:
            self._current = at = int(start * self._win_scale)
            self._win_lo = lo = at * self._window_s
            self._win_hi = lo + self._window_s
            if at not in self._windows:
                sites = len(self._site_strs)
                self._windows[at] = _Window([], [], [0] * sites, [0] * sites)
        return self._windows[self._current]

    def _trace(self, ue: int, home_site: int,
               records: List[QueryRecord]) -> None:
        """One trace for a sampled session: a root span plus one query
        span per request.  Stage-level breakdown lives in the tail
        exemplars (``repro tail`` prints it), so the sampled stream stays
        cheap enough to leave on at population scale."""
        tracer = self._tel.tracer
        deployment = self._deployment
        site_strs = self._site_strs
        # Ids are built against the tracer's high-water marks, so the
        # batch lands copy-free and interleaves identically on every
        # backend.
        trace_base, span_base = tracer.id_offsets()
        trace_id = trace_base + 1
        root_id = span_base + 1
        t_ms = records[0][0] * 1000.0
        root = Span(trace_id, root_id, None, "session", "workload",
                    deployment, t_ms, t_ms,
                    {"deployment": deployment, "ue": str(ue),
                     "home_site": site_strs[home_site]})
        spans = [root]
        session_end = t_ms
        for span_id, record in enumerate(records, root_id + 1):
            start, site, served_site, hit, _, total_ms = record[:6]
            t_ms = start * 1000.0
            span_end = t_ms + total_ms
            # Queries can overlap (think time restarts at issue, not
            # completion), so the session ends at the max end, not the
            # last.
            if span_end > session_end:
                session_end = span_end
            spans.append(Span(
                trace_id, span_id, root_id, "query", "workload",
                deployment, t_ms, span_end,
                {"hit": "1" if hit else "0",
                 "served_site": site_strs[served_site],
                 "site": site_strs[site]}))
        root.end_ms = session_end
        tracer.ingest(spans, 1, len(spans))
        self._sampled_queries += len(records)
