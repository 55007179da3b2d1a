"""Query-scoped spans on the simulated clock.

A **trace** is one logical operation end to end — a DNS resolution, a
content fetch — and a **span** is one timed step inside it: a stub
attempt, an L-DNS cache probe, an upstream exchange, a C-DNS routing
decision, a single link traversal.  Parentage is carried by a
:class:`TraceContext` threaded through the call paths (and, across the
simulated wire, attached out-of-band to in-flight datagrams), exactly
like a trace id propagated in a request header — except nothing here
ever touches the wire bytes, so tracing can never perturb the
simulation.

Identifiers are sequence numbers, not random: the tracer draws no
randomness and adds no simulated time, which is what lets the replay
digests stay byte-for-byte identical with tracing on or off.

At population scale retaining every trace is untenable, so the tracer
supports **deterministic head sampling** (``sample_rate < 1.0``): when
a root span opens, the new trace id is hashed (splitmix64 — no RNG) and
the whole trace is kept or discarded by that one decision.  Ids keep
incrementing identically whether a trace is sampled in or out, so a
sampled run interleaves byte-for-byte with a full run's id space and
the simulation stream is untouched either way.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set, Tuple,
                    Type, Union)

from repro.telemetry.sampling import hash_unit_u64

#: Anything that can parent a new span.
ParentLike = Union["Span", "TraceContext", None]


class TraceContext:
    """An immutable (trace, span) reference used to parent child spans.

    This is the propagation token: pass it down a call path (or ride it
    on a datagram) and every span begun with it as ``parent`` joins the
    same trace.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One timed operation within a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "track", "start_ms", "end_ms", "attrs")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, category: str, track: str,
                 start_ms: float, end_ms: Optional[float],
                 attrs: Dict[str, Any]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        #: The lane the span renders on (a host name, a link name).
        self.track = track
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.attrs = attrs

    @property
    def context(self) -> TraceContext:
        """The context that parents children of this span."""
        return TraceContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:
        when = (f"{self.start_ms:.3f}..{self.end_ms:.3f}"
                if self.end_ms is not None else f"{self.start_ms:.3f}..open")
        return (f"Span({self.category}/{self.name} trace={self.trace_id} "
                f"[{when}] on {self.track})")


class Tracer:
    """Creates, finishes, and stores spans.

    Until :meth:`bind_clock_source` is called the clock reads 0.0.
    """

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        #: Spans retained before the rest are counted in ``dropped``.
        self.max_spans = 1_000_000
        #: Fraction of traces retained by deterministic head sampling.
        self.sample_rate = sample_rate
        self.finished: List[Span] = []
        self.dropped = 0
        #: Spans discarded because their trace was sampled out.
        self.sampled_out = 0
        #: Trace ids head-sampling decided to drop (only populated when
        #: ``sample_rate < 1.0``; bounded by the run's trace count).
        self._unsampled: Set[int] = set()
        #: The clock is ``_clock_source.now``, read on every span
        #: begin/end/event: a plain attribute load, not a call.
        self._clock_source: Any = SimpleNamespace(now=0.0)
        self._next_trace_id = 0
        self._next_span_id = 0

    def bind_clock_source(self, source: Any) -> None:
        """Read the clock from ``source.now`` (any object with a ``now``
        attribute, typically a :class:`~repro.netsim.Simulator`)."""
        self._clock_source = source

    # -- span lifecycle ---------------------------------------------------------

    def begin(self, name: str, category: str, track: str,
              parent: ParentLike = None, **attrs: Any) -> Span:
        """Open a span starting now; ``parent=None`` starts a new trace."""
        return self._make(name, category, track, parent,
                          start_ms=self._clock_source.now, end_ms=None,
                          attrs=attrs)

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        """Close ``span`` at the current clock; no-op on ``None``.

        A step that may raise closes its span with :class:`EndOnError`.
        """
        if span is None or span.end_ms is not None:
            return
        span.end_ms = self._clock_source.now
        if attrs:
            span.attrs.update(attrs)
        self._store(span)

    def add(self, name: str, category: str, track: str,
            start_ms: float, end_ms: float,
            parent: ParentLike = None, **attrs: Any) -> Span:
        """Record a fully-formed span with explicit times.

        Used where the caller already knows both endpoints — the network
        walk computes each hop's departure and arrival before the packet
        "moves", so hop spans are added in one shot.
        """
        span = self._make(name, category, track, parent,
                          start_ms=start_ms, end_ms=end_ms, attrs=attrs)
        self._store(span)
        return span

    def event(self, name: str, category: str, track: str,
              parent: ParentLike = None, **attrs: Any) -> Span:
        """Record an instant (zero-duration) event at the current clock."""
        now = self._clock_source.now
        span = self._make(name, category, track, parent,
                          start_ms=now, end_ms=now, attrs=attrs)
        self._store(span)
        return span

    # -- reading back -----------------------------------------------------------

    # -- merging ----------------------------------------------------------------

    def absorb(self, spans: Iterable[Span]) -> None:
        """Fold spans from another tracer in, remapping their ids.

        Every incoming trace/span id is shifted past this tracer's
        high-water mark, so parentage inside the absorbed batch is
        preserved and nothing collides with existing spans.  Absorbing
        per-trial batches in a fixed order therefore yields the same id
        assignment no matter which process produced each batch — the
        property the sharded executor relies on for byte-identical
        trace exports.
        """
        trace_offset = self._next_trace_id
        span_offset = self._next_span_id
        max_trace = 0
        max_span = 0
        for span in spans:
            max_trace = max(max_trace, span.trace_id)
            max_span = max(max_span, span.span_id)
            parent_id = (None if span.parent_id is None
                         else span.parent_id + span_offset)
            copy = Span(span.trace_id + trace_offset,
                        span.span_id + span_offset, parent_id,
                        span.name, span.category, span.track,
                        span.start_ms, span.end_ms, dict(span.attrs))
            self._record(copy)
        self._next_trace_id += max_trace
        self._next_span_id += max_span

    def id_offsets(self) -> Tuple[int, int]:
        """Current ``(trace, span)`` id high-water marks.

        A caller that wants :meth:`ingest`'s copy-free path builds its
        spans with ids ``offset + 1 .. offset + count`` directly.
        """
        return (self._next_trace_id, self._next_span_id)

    def ingest(self, spans: Iterable[Span], trace_count: int,
               span_count: int) -> None:
        """Adopt caller-built spans wholesale — no copy, no remap.

        The contract: the caller read :meth:`id_offsets` first and built
        ``spans`` with ids strictly inside ``(offset, offset + count]``.
        Head sampling does not apply (the caller already decided what to
        keep — the engine's per-session sampler, for instance).  This is
        :meth:`absorb` minus the per-span copy, for hot producers like
        the population engine's sampled session batches.
        """
        for span in spans:
            self._record(span)
        self._next_trace_id += trace_count
        self._next_span_id += span_count

    def __len__(self) -> int:
        return len(self.finished)

    # -- internals --------------------------------------------------------------

    def _make(self, name: str, category: str, track: str, parent: ParentLike,
              start_ms: float, end_ms: Optional[float],
              attrs: Dict[str, Any]) -> Span:
        if parent is None:
            self._next_trace_id += 1
            trace_id = self._next_trace_id
            parent_id: Optional[int] = None
            if (self.sample_rate < 1.0
                    and hash_unit_u64(trace_id) >= self.sample_rate):
                self._unsampled.add(trace_id)
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span_id += 1
        return Span(trace_id, self._next_span_id, parent_id, name, category,
                    track, start_ms, end_ms, dict(attrs))

    def _store(self, span: Span) -> None:
        """Retain one locally-created span, honouring sampling + bounds."""
        if self._unsampled and span.trace_id in self._unsampled:
            self.sampled_out += 1
            return
        if len(self.finished) < self.max_spans:
            self.finished.append(span)
        else:
            self.dropped += 1

    def _record(self, span: Span) -> None:
        if len(self.finished) >= self.max_spans:
            self.dropped += 1
            return
        self.finished.append(span)

    def __repr__(self) -> str:
        return f"Tracer({len(self.finished)} spans)"


#: :class:`EndOnError` attribute value that stands for the escaping
#: exception's class name.
ERROR_NAME: Any = object()


class EndOnError:
    """``with EndOnError(tracer, span, **attrs):`` — a step that raises
    still ends its span, and the error propagates.

    On an :class:`Exception` the span ends with ``attrs`` in the order
    given, each :data:`ERROR_NAME` value replaced by the exception's
    class name; ``on_error`` (if any) gets that name first.  A
    ``GeneratorExit`` — a simulated process being closed — is not a
    failure and ends nothing.  ``tracer=None`` (telemetry off) makes the
    block a plain block.  The exception is never stored, so no reference
    cycle runs through its traceback.
    """

    __slots__ = ("tracer", "span", "on_error", "attrs")

    def __init__(self, tracer: Optional[Tracer], span: Optional[Span],
                 on_error: Optional[Callable[[str], None]] = None,
                 **attrs: Any) -> None:
        self.tracer = tracer
        self.span = span
        self.on_error = on_error
        self.attrs = attrs

    def __enter__(self) -> None:
        return None

    def __exit__(self, error_type: Optional[Type[BaseException]],
                 _error: Optional[BaseException], _traceback: Any) -> None:
        if (error_type is None or self.tracer is None
                or not issubclass(error_type, Exception)):
            return
        name = error_type.__name__
        if self.on_error is not None:
            self.on_error(name)
        self.tracer.end(self.span, **{
            key: name if value is ERROR_NAME else value
            for key, value in self.attrs.items()})
