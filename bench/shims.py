"""Timing shims installed from outside ``src/repro`` for the traced run.

Each *point* names one or more public callables of a layer.  Installing
replaces them with a wrapper that stamps ``perf_counter`` around the call and
keeps a stack, so a point's *self* time is its own time minus the time of the
shimmed calls made beneath it.  Methods are patched on their class;
module-level functions are rebound in every ``repro.*`` module that imported
them.  :meth:`Shims.remove` puts every original back and reports any
attribute that is not *the* original object afterwards.

A shim costs more than many of the calls it wraps, so the cost is measured
on a no-op before each workload (:meth:`Shims.calibrate`) and subtracted: the
part between the two clock reads from the point itself, the part outside
them from whichever point made the call.

Generator entry points (``StubResolver.query``, ``CoreDnsServer.handle_query``,
``DnsServer._serve``) return before their work is done, so they cannot be
timed from outside and have no point here.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: point -> "module:Class.method" or "module:function" targets.
POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("runtime.executor.run", ("repro.runtime.executor:TrialExecutor.run",)),
    ("core.build_testbed", ("repro.core.deployments:build_testbed",)),
    ("workload.calibrate", ("repro.workload.deployment:calibrate",)),
    ("workload.run_district", ("repro.workload.engine:run_district",)),
    ("workload.ranklru.lookup", ("repro.workload.caches:RankLru.lookup",)),
    ("cdn.zipf.next_rank", ("repro.cdn.content:ZipfRankStream.next_rank",)),
    ("cdn.hashring.pick", ("repro.cdn.allocation:HashRing.pick",)),
    ("cdn.allocator.assign",
     ("repro.cdn.allocation:ConsistentAllocator.assign",)),
    ("cdn.router.select_cache",
     ("repro.cdn.router:TrafficRouter.select_cache",)),
    ("measure.histogram.add",
     ("repro.measure.histogram:LatencyHistogram.add",)),
    ("netsim.sim.run", ("repro.netsim.engine:Simulator.run",
                        "repro.netsim.engine:Simulator.run_until_resolved")),
    ("netsim.sim.schedule", ("repro.netsim.engine:Simulator.call_at",
                             "repro.netsim.engine:Simulator.call_after",
                             "repro.netsim.engine:Simulator.call_soon")),
    ("netsim.network.send", ("repro.netsim.network:Network.send",)),
    ("netsim.latency.sample",
     tuple(f"repro.netsim.latency:{model}.sample"
           for model in ("Constant", "Uniform", "Normal", "LogNormal",
                         "Gamma", "Empirical", "Compound"))),
    ("mobile.nat.process", ("repro.mobile.nat:NatMiddlebox.process",)),
    ("dnswire.from_wire", ("repro.dnswire.message:Message.from_wire",)),
    ("dnswire.to_wire", ("repro.dnswire.message:Message.to_wire",
                         "repro.dnswire.message:LazyMessage.to_wire")),
    ("dnswire.cached_wire", ("repro.dnswire.message:cached_wire",)),
    ("dnswire.zone.lookup", ("repro.dnswire.zone:Zone.lookup",)),
    ("resolver.cache.get", ("repro.resolver.cache:DnsCache.get",)),
    ("resolver.cache.put", ("repro.resolver.cache:DnsCache.put_records",
                            "repro.resolver.cache:DnsCache.put_negative")),
    ("resolver.authoritative.handle_query",
     ("repro.resolver.authoritative:AuthoritativeServer.handle_query",)),
    ("control.registry.update",
     ("repro.control.registry:ZoneRegistry.update",)),
    ("telemetry.tracer.ingest", ("repro.telemetry.trace:Tracer.ingest",)),
    ("telemetry.tail.offer",
     ("repro.telemetry.sampling:TailReservoir.offer",)),
    ("telemetry.timeseries.bulk",
     ("repro.telemetry.timeseries:TimeSeries.bulk_observe",
      "repro.telemetry.timeseries:TimeSeries.bulk_count")),
)

#: Points whose return value says whether the call was a hit.
HIT_OF: Dict[str, Callable[[object], bool]] = {
    "resolver.cache.get": lambda answer: answer.outcome.name == "HIT",
}

#: Raw spans kept per traced run (the aggregates cover every call).
SPAN_CAP = 10_000

# Indices into a point's aggregate list.
CALLS, RAW_SELF, CHILD_CALLS, LEAF_CALLS, HITS = range(5)


class Shims:
    """One traced run's shims, aggregates and raw spans."""

    def __init__(self) -> None:
        self.aggregates: Dict[str, List[float]] = {
            point: [0, 0.0, 0, 0, 0] for point, _ in POINTS}
        #: ``[name, start, end, parent span index or -1]``.
        self.spans: List[List[object]] = []
        # Bottom frame: what runs outside every shim.
        self._stack: List[List[float]] = [[0.0, 0, -1]]
        #: ``(owner, attribute, original, shim)`` for every patched slot.
        self._patches: List[Tuple[object, str, object, object]] = []
        #: Per-call shim cost in seconds: all of it, and the part that falls
        #: between the shim's own two clock reads.
        self.total_s = 0.0
        self.inner_s = 0.0

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, point: str, original: Callable[..., object],
              aggregate: Optional[List[float]] = None,
              ) -> Callable[..., object]:
        agg = self.aggregates[point] if aggregate is None else aggregate
        stack, spans, clock = self._stack, self.spans, perf_counter
        hit_of = HIT_OF.get(point)

        def shim(*args: object, **kwargs: object) -> object:
            parent = stack[-1]
            frame = [0.0, 0, -1]  # shimmed children: seconds, calls; span
            if len(spans) < SPAN_CAP:
                frame[2] = len(spans)
                spans.append([point, 0.0, 0.0, parent[2]])
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if hit_of is not None and hit_of(result):
                    agg[HITS] += 1
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                parent[1] += 1
                agg[CALLS] += 1
                agg[RAW_SELF] += elapsed - frame[0]
                if frame[1]:
                    agg[CHILD_CALLS] += frame[1]
                else:
                    agg[LEAF_CALLS] += 1
                if frame[2] >= 0:
                    span = spans[frame[2]]
                    span[1] = start
                    span[2] = end

        return shim

    # -- calibration ---------------------------------------------------------

    def calibrate(self) -> None:
        """Measure a shim's own cost on a no-op: the quietest of 7 batches,
        since anything else on the machine can only add to a batch."""
        calls, batches = 20_000, 7

        def noop() -> None:
            return None

        aggregate: List[float] = [0, 0.0, 0, 0, 0]
        shimmed = self._wrap("calibration", noop, aggregate)
        kept = len(self.spans)
        totals, inners = [], []
        for _ in range(batches):
            aggregate[RAW_SELF] = 0.0
            started = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - started
            started = perf_counter()
            for _ in range(calls):
                shimmed()
            shim = perf_counter() - started
            totals.append(max(0.0, shim - bare) / calls)
            inners.append(max(0.0, aggregate[RAW_SELF] - bare) / calls)
        del self.spans[kept:]
        self._stack[0][:2] = [0.0, 0]
        self.total_s = min(totals)
        self.inner_s = min(min(inners), self.total_s)

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for point, targets in POINTS:
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = path.rpartition(".")
                if owner_name:
                    self._patch_method(point, getattr(module, owner_name),
                                       attribute)
                else:
                    self._patch_function(point, getattr(module, attribute))

    def _patch_method(self, point: str, owner: type, attribute: str) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            shim: object = type(original)(
                self._wrap(point, original.__func__))
        else:
            shim = self._wrap(point, original)
        setattr(owner, attribute, shim)
        self._patches.append((owner, attribute, original, shim))

    def _patch_function(self, point: str,
                        original: Callable[..., object]) -> None:
        shim = self._wrap(point, original)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, shim)
                    self._patches.append((module, attribute, original, shim))

    def remove(self) -> List[str]:
        """Restore every original; returns the slots that did not take."""
        wrong = []
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        for owner, attribute, original, _ in self._patches:
            if vars(owner)[attribute] is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}"
                             f".{attribute}")
        self._patches.clear()
        return wrong

    # -- reading -------------------------------------------------------------

    def outside_s(self, wall_s: float) -> float:
        """Traced wall not under any shim, less the shim cost it carries."""
        covered, calls = self._stack[0][0], self._stack[0][1]
        return max(0.0, wall_s - covered
                   - calls * (self.total_s - self.inner_s))

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per point: calls, compensated self seconds, leaf calls, hits."""
        outer_s = self.total_s - self.inner_s
        table = {}
        for point, agg in self.aggregates.items():
            self_s = (agg[RAW_SELF] - agg[CALLS] * self.inner_s
                      - agg[CHILD_CALLS] * outer_s)
            table[point] = {"calls": agg[CALLS], "self_s": max(0.0, self_s),
                            "leaf_calls": agg[LEAF_CALLS],
                            "hits": agg[HITS]}
        return table
