"""Critical-path analysis: where did a resolution's budget go?

The paper's P1 requirement is a hard latency budget — resolution far
below the ~20 ms an MEC application can spend end to end — so totaling
a lookup's latency is not enough: deployment comparisons need the time
*attributed* to stages (radio, backhaul, L-DNS cache work, upstream
recursion, C-DNS routing, TCP fallback).  This module rebuilds a
trace's span tree and charges every simulated instant to exactly one
stage.

Attribution is a **segment sweep**: the trace's timeline is cut at
every span start/end, and each resulting segment is owned by the
*deepest* span covering it (ties break toward the later span id, i.e.
the span begun later).  A segment's stage is inferred from its owner's
name, category, track, and ancestry — no external configuration, so
the analyzer works on any trace the stack emits.

Arithmetic is done in :class:`fractions.Fraction`.  Each segment width
``Fraction(b) - Fraction(a)`` is an *exact* rational, so the per-stage
sums telescope exactly and the invariant

    sum(stage totals) == Fraction(max end) - Fraction(min start)

holds with no floating-point slack; converting that exact total back
to float reproduces IEEE ``max_end - min_start`` bit for bit (both are
the correctly-rounded difference).  That is the float-identity
contract ``tests/profile/test_criticalpath.py`` asserts against the
plain float difference for every trace of a figure5 run.

This package only *reads* spans — it never creates telemetry, so the
ARCH002 zero-perturbation contract is untouched.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Tuple)

from repro.telemetry import Span

#: UE ↔ eNodeB air-interface transit time.
STAGE_RADIO = "radio"
#: Wired transits (EPC bearer, LAN, Internet) outside upstream recursion.
STAGE_BACKHAUL = "backhaul"
#: Time spent inside the local resolver (cache probes, plugin chain).
STAGE_LDNS_CACHE = "ldns-cache"
#: Recursive resolution beyond the L-DNS (root/TLD/auth exchanges).
STAGE_UPSTREAM = "upstream-recursion"
#: Time on the CDN's request-routing DNS tier.
STAGE_CDNS = "cdns-routing"
#: Truncation-triggered retry over TCP, wherever it lands.
STAGE_TCP_FALLBACK = "tcp-fallback"
#: Stub/driver work on the client itself.
STAGE_CLIENT = "client"
#: Anything the rules above cannot place (kept so sums stay exact).
STAGE_OTHER = "other"

#: Canonical stage order for reports and serialized documents.
STAGES: Tuple[str, ...] = (
    STAGE_RADIO, STAGE_BACKHAUL, STAGE_LDNS_CACHE, STAGE_UPSTREAM,
    STAGE_CDNS, STAGE_TCP_FALLBACK, STAGE_CLIENT, STAGE_OTHER)


class Segment(NamedTuple):
    """One sweep segment: a slice of the trace owned by one span."""

    start_ms: float
    end_ms: float
    #: Exact width ``Fraction(end_ms) - Fraction(start_ms)``.
    width: Fraction
    #: Deepest covering span; ``None`` for an uncovered gap.
    owner: Optional[Span]
    #: Ancestry of the owner, root first, owner last; empty for gaps.
    stack: Tuple[Span, ...]
    stage: str


class PathStep(NamedTuple):
    """A maximal run of adjacent segments with one owner (for reports)."""

    start_ms: float
    end_ms: float
    stage: str
    #: ``category/name`` of the owning span; ``"(gap)"`` when uncovered.
    what: str
    width: Fraction


class CriticalPath(NamedTuple):
    """One trace's budget, attributed stage by stage — exactly."""

    trace_id: int
    #: Exact per-stage totals; keys are a subset of :data:`STAGES`.
    stages: Dict[str, Fraction]
    steps: List[PathStep]
    #: Exact trace duration; equals ``sum(stages.values())`` by
    #: construction, and ``float(total_exact)`` equals the float
    #: ``max end - min start`` bit for bit.
    total_exact: Fraction

    @property
    def total_ms(self) -> float:
        return float(self.total_exact)

    def stage_ms(self, stage: str) -> float:
        """One stage's attributed time as a float (0.0 when absent)."""
        return float(self.stages.get(stage, Fraction(0)))


def _ancestry(spans: List[Span]) -> Dict[int, Tuple[Span, ...]]:
    """Each span's chain root → self, resolved within this trace.

    A parent id that never finished (or was absorbed away) simply
    truncates the chain — the span is treated as rooted where the
    record ends, which keeps the sweep total-preserving regardless.
    """
    by_id = {span.span_id: span for span in spans}
    chains: Dict[int, Tuple[Span, ...]] = {}

    def resolve(span: Span) -> Tuple[Span, ...]:
        cached = chains.get(span.span_id)
        if cached is not None:
            return cached
        lineage: List[Span] = [span]
        seen = {span.span_id}
        cursor = span.parent_id
        while cursor is not None and cursor in by_id and cursor not in seen:
            parent = by_id[cursor]
            lineage.append(parent)
            seen.add(cursor)
            cursor = parent.parent_id
        chain = tuple(reversed(lineage))
        chains[span.span_id] = chain
        return chain

    for span in spans:
        resolve(span)
    return chains


def _stage_for(span: Span, chain: Tuple[Span, ...],
               client_tracks: FrozenSet[str],
               cdns_tracks: FrozenSet[str]) -> str:
    """Classify one owning span into a budget stage.

    Rules are ordered most-specific first; ancestry (``chain``, root
    first, ``span`` last) lets a transit hop inherit the phase that
    caused it (TCP fallback, upstream recursion).
    """
    ancestor_names = {ancestor.name for ancestor in chain[:-1]}
    if span.name == "stub.tcp-fallback" or "stub.tcp-fallback" in ancestor_names:
        return STAGE_TCP_FALLBACK
    if span.name == "transit":
        if (span.attrs.get("from") in client_tracks
                or span.attrs.get("to") in client_tracks):
            return STAGE_RADIO
        if "upstream.exchange" in ancestor_names:
            return STAGE_UPSTREAM
        return STAGE_BACKHAUL
    if span.track in cdns_tracks:
        return STAGE_CDNS
    if span.name == "upstream.exchange":
        return STAGE_UPSTREAM
    if span.name == "dns.serve" and "upstream.exchange" in ancestor_names:
        return STAGE_UPSTREAM
    if (span.category == "mec" or span.name in ("dns.serve",
                                                "ldns.cache-lookup",
                                                "ldns.serve-stale")
            or span.name.startswith("plugin.")):
        return STAGE_LDNS_CACHE
    if (span.category == "measure" or span.track in client_tracks
            or span.name in ("lookup", "stub.query", "stub.attempt")):
        return STAGE_CLIENT
    return STAGE_OTHER


def trace_segments(spans: Iterable[Span], trace_id: int) -> List[Segment]:
    """Sweep one trace into owner-attributed segments.

    Segments partition ``[min start, max end]`` of the trace's finished
    spans: cut at every span boundary, assign each slice to the deepest
    covering span (ties → larger span id), classify by
    :func:`_stage_for`.  Widths are exact rationals, so they sum to the
    exact trace duration with no float error.
    """
    done = [span for span in spans
            if span.trace_id == trace_id and span.end_ms is not None]
    if not done:
        return []
    chains = _ancestry(done)
    client_tracks = frozenset(span.track for span in done
                              if span.name == "stub.query")
    cdns_tracks = frozenset(span.track for span in done
                            if span.name == "cdns.route")
    boundaries = sorted({edge for span in done
                         for edge in (span.start_ms, span.end_ms)
                         if edge is not None})
    segments: List[Segment] = []
    for start, end in zip(boundaries, boundaries[1:]):
        covering = [span for span in done
                    if span.start_ms <= start
                    and span.end_ms is not None and span.end_ms >= end]
        owner: Optional[Span] = None
        stack: Tuple[Span, ...] = ()
        stage = STAGE_OTHER
        if covering:
            owner = max(covering,
                        key=lambda span: (len(chains[span.span_id]),
                                          span.span_id))
            stack = chains[owner.span_id]
            stage = _stage_for(owner, stack, client_tracks, cdns_tracks)
        segments.append(Segment(
            start_ms=start, end_ms=end,
            width=Fraction(end) - Fraction(start),
            owner=owner, stack=stack, stage=stage))
    return segments


def analyze_trace(spans: Iterable[Span], trace_id: int) -> CriticalPath:
    """Attribute one trace's whole duration to stages, exactly."""
    materialized = list(spans)
    segments = trace_segments(materialized, trace_id)
    stages: Dict[str, Fraction] = {}
    steps: List[PathStep] = []
    total = Fraction(0)
    for segment in segments:
        total += segment.width
        stages[segment.stage] = (stages.get(segment.stage, Fraction(0))
                                 + segment.width)
        what = ("(gap)" if segment.owner is None
                else f"{segment.owner.category}/{segment.owner.name}")
        if (steps and steps[-1].what == what
                and steps[-1].stage == segment.stage
                and steps[-1].end_ms == segment.start_ms):
            last = steps[-1]
            steps[-1] = PathStep(last.start_ms, segment.end_ms,
                                 last.stage, last.what,
                                 last.width + segment.width)
        else:
            steps.append(PathStep(segment.start_ms, segment.end_ms,
                                  segment.stage, what, segment.width))
    return CriticalPath(trace_id=trace_id, stages=stages, steps=steps,
                        total_exact=total)

