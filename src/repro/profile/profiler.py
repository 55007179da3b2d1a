"""Deterministic simulated-time profiler over telemetry spans.

A conventional profiler samples the wall clock; this one *derives* a
profile from the spans a run already recorded, so it is exactly
reproducible — same seed, same profile, byte for byte — and costs the
simulation nothing (the zero-perturbation contract holds: spans
are only read here).

Two views:

* :func:`simulated_profile` — per ``category/name`` **inclusive** time
  (sum of span durations) and **exclusive** time (segments of the
  timeline the span owns outright, via the
  :mod:`repro.profile.criticalpath` sweep), rendered by
  :func:`render_profile` as a text table.
* :func:`collapsed_stacks` — exclusive time keyed by the full span
  ancestry (``lookup;stub.query;stub.attempt;transit``), rendered by
  :func:`render_collapsed` in Brendan Gregg's collapsed-stack format:
  feed the file to ``flamegraph.pl`` or paste it into a flamegraph
  viewer (values are integer microseconds of simulated time).

All arithmetic is exact (:class:`fractions.Fraction`), so exclusive
times across a trace sum to precisely its duration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.profile.criticalpath import trace_segments
from repro.telemetry import Span


class ProfileEntry(NamedTuple):
    """One ``category/name`` row of the simulated-time profile."""

    category: str
    name: str
    count: int
    #: Exact sum of span durations (children included).
    inclusive: Fraction
    #: Exact timeline ownership (children excluded).
    exclusive: Fraction

    @property
    def inclusive_ms(self) -> float:
        return float(self.inclusive)

    @property
    def exclusive_ms(self) -> float:
        return float(self.exclusive)


def _by_trace(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        if span.end_ms is None:
            continue
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped


def simulated_profile(spans: Iterable[Span]) -> List[ProfileEntry]:
    """Aggregate spans into inclusive/exclusive per-component rows.

    Rows come back sorted by exclusive time, largest first (ties by
    ``category/name`` so the order is total).
    """
    grouped = _by_trace(spans)
    counts: Dict[Tuple[str, str], int] = {}
    inclusive: Dict[Tuple[str, str], Fraction] = {}
    exclusive: Dict[Tuple[str, str], Fraction] = {}
    for trace_spans in grouped.values():
        for span in trace_spans:
            key = (span.category, span.name)
            counts[key] = counts.get(key, 0) + 1
            assert span.end_ms is not None
            inclusive[key] = (inclusive.get(key, Fraction(0))
                              + Fraction(span.end_ms)
                              - Fraction(span.start_ms))
    for trace_id, trace_spans in grouped.items():
        for segment in trace_segments(trace_spans, trace_id):
            if segment.owner is None:
                continue
            key = (segment.owner.category, segment.owner.name)
            exclusive[key] = exclusive.get(key, Fraction(0)) + segment.width
    entries = [ProfileEntry(category=category, name=name,
                            count=counts[(category, name)],
                            inclusive=inclusive[(category, name)],
                            exclusive=exclusive.get((category, name),
                                                    Fraction(0)))
               for category, name in counts]
    entries.sort(key=lambda entry: (-entry.exclusive, entry.category,
                                    entry.name))
    return entries


def render_profile(entries: List[ProfileEntry],
                   limit: Optional[int] = None) -> str:
    """The profile as a text table (all rows unless ``limit`` is set)."""
    total = sum((entry.exclusive for entry in entries), Fraction(0))
    shown = entries if limit is None else entries[:limit]
    lines = [f"{'component':28s} {'calls':>7s} {'incl ms':>12s} "
             f"{'excl ms':>12s} {'excl %':>7s}"]
    for entry in shown:
        share = float(entry.exclusive / total) * 100.0 if total else 0.0
        lines.append(f"{entry.category + '/' + entry.name:28s} "
                     f"{entry.count:7d} {entry.inclusive_ms:12.3f} "
                     f"{entry.exclusive_ms:12.3f} {share:6.1f}%")
    if limit is not None and len(entries) > limit:
        lines.append(f"... {len(entries) - limit} more rows")
    lines.append(f"{'total (exclusive)':28s} {'':7s} {'':12s} "
                 f"{float(total):12.3f}")
    return "\n".join(lines)


def collapsed_stacks(spans: Iterable[Span]) -> Dict[str, Fraction]:
    """Exclusive time per span ancestry, keyed by the collapsed stack.

    The key is ``;``-joined span names from trace root to owner — the
    flamegraph convention — and the value is the exact simulated time
    that stack owns across all traces.
    """
    stacks: Dict[str, Fraction] = {}
    for trace_id, trace_spans in _by_trace(spans).items():
        for segment in trace_segments(trace_spans, trace_id):
            if segment.owner is None:
                continue
            key = ";".join(span.name for span in segment.stack)
            stacks[key] = stacks.get(key, Fraction(0)) + segment.width
    return stacks


def render_collapsed(stacks: Dict[str, Fraction]) -> str:
    """Collapsed-stack text: one ``stack value`` line per ancestry.

    Values are integer **microseconds** of simulated time (flamegraph
    tools want integers); zero-rounded stacks are kept at 1 so no stack
    silently vanishes from the rendering.
    """
    lines = []
    for stack in sorted(stacks):
        micros = round(stacks[stack] * 1000)
        lines.append(f"{stack} {max(int(micros), 1)}")
    return "\n".join(lines) + ("\n" if lines else "")
