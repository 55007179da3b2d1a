"""Event loop, futures, and generator processes.

The engine is a calendar-queue simulator: pending events live in
per-timestamp **buckets** (a dict keyed by the exact float instant) and
a small heap orders only the *distinct* timestamps.  Scheduling into an
existing instant is an O(1) list append; the heap is touched once per
distinct instant instead of once per event, and a whole bucket is
applied back-to-back with the clock set once — the batched
same-timestamp dispatch the DNS workloads are full of (timer cascades,
future-callback chains at one instant).

Determinism contract: events at the same instant run in *scheduling
order*.  The old flat heap enforced this with an explicit sequence
number riding every tuple; the bucket list enforces the identical order
structurally, because appends happen in sequence order and the drain
consumes the list left to right.  The observable event order — and
therefore every RNG draw, every artifact digest — is byte-identical to
the heap engine's (pinned by ``tests/runtime/test_golden_digests.py``).

On top sit two conveniences the protocol code leans on heavily:

* :class:`SimFuture` — a one-shot result holder with callbacks, used for
  request/response patterns (a DNS query's answer, an HTTP fetch).
* generator processes — :meth:`Simulator.spawn` runs a generator that may
  ``yield`` a number (sleep that many milliseconds) or a
  :class:`SimFuture` (wait for it); the generator's ``return`` value
  resolves the process's own future.  Process state is reified into a
  slotted :class:`_Process` object — one allocation per spawn — instead
  of the old nested-closure trampoline that allocated a fresh callback
  per yield.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import SimulationError

#: Optional hook called with every freshly constructed :class:`Simulator`.
#: The ``repro profile`` harness installs one to find the simulators an
#: experiment builds internally (they never cross an API boundary
#: otherwise).  ``None`` — the default — costs one attribute check per
#: construction and nothing else; the hook only *observes*, so installed
#: or not, the event stream is identical.
_simulator_observer: Optional[Callable[["Simulator"], None]] = None


def observe_simulators(callback: Optional[Callable[["Simulator"], None]]) -> None:
    """Install (or, with ``None``, remove) the simulator-construction hook."""
    global _simulator_observer
    _simulator_observer = callback


class ProcessFailed(SimulationError):
    """A spawned process raised; the original exception is ``__cause__``."""


class SimFuture:
    """A single-assignment result that callbacks or processes can await."""

    __slots__ = ("_sim", "_done", "_value", "_error", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """The value; raises the stored exception if the future failed."""
        if not self._done:
            raise SimulationError("future is not resolved yet")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error if self._done else None

    def resolve(self, value: Any = None) -> None:
        """Complete the future with ``value`` (first completion wins)."""
        self._finish(value, None)

    def fail(self, error: BaseException) -> None:
        """Complete the future with an error (first completion wins)."""
        self._finish(None, error)

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        if self._done:
            return  # first resolution wins (e.g. response vs. timeout race)
        self._done = True
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._sim.call_soon(callback, self)

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Call ``callback(self)`` once resolved (immediately if done)."""
        if self._done:
            self._sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)


class _Process:
    """One spawned generator's resumable state (see :meth:`Simulator.spawn`).

    The old engine kept this state in a nested ``step`` closure and
    allocated a fresh ``on_done`` closure for every future the generator
    yielded.  Reifying it into a slotted object costs one allocation per
    *spawn* and re-uses the same two bound methods for every subsequent
    resume — the scheduling sequence (one ``call_after`` per sleep, one
    done-callback per awaited future) is unchanged, so the event stream
    is identical.
    """

    __slots__ = ("_sim", "_generator", "_done")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Any, Any, Any],
                 done: SimFuture) -> None:
        self._sim = sim
        self._generator = generator
        self._done = done

    def _step(self, send_value: Any = None,
              throw_error: Optional[BaseException] = None) -> None:
        # An error the generator handles loses its traceback.  From 3.12 a
        # finished generator's frame links to its caller's (``f_back``), so
        # traceback -> generator frame -> this frame's ``throw_error`` is a
        # cycle that holds the generator's locals (sockets, futures) until
        # the collector runs.  An error that escapes keeps it.
        try:
            if throw_error is not None:
                yielded = self._generator.throw(throw_error)
                throw_error.__traceback__ = None
            else:
                yielded = self._generator.send(send_value)
        except StopIteration as stop:
            if throw_error is not None:
                throw_error.__traceback__ = None
            self._done.resolve(stop.value)
            return
        except Exception as error:  # the process boundary: whatever a process raises fails its future
            wrapper = ProcessFailed(str(error))
            wrapper.__cause__ = error
            self._done.fail(wrapper)
            return
        if isinstance(yielded, SimFuture):
            yielded.add_done_callback(self._resume)
        elif isinstance(yielded, (int, float)):
            self._sim.call_after(float(yielded), self._step)
        else:
            self._step(throw_error=SimulationError(
                f"process yielded unsupported value {yielded!r}"))

    def _resume(self, fut: SimFuture) -> None:
        """Done-callback for an awaited future: send or throw its outcome."""
        error = fut._error
        if error is not None:
            self._step(throw_error=error)
        else:
            self._step(send_value=fut._value)


#: One pending event: the callback and its scheduler-carried arguments.
_Event = Tuple[Callable[..., None], Tuple[Any, ...]]


class Simulator:
    """The discrete-event clock and scheduler.  Times are milliseconds."""

    def __init__(self) -> None:
        #: Current simulated time in milliseconds.  A plain attribute,
        #: not a property: the clock is read on every span, tap, and
        #: scheduling call, and the property descriptor was a measurable
        #: per-event cost.  Treat it as read-only outside the engine.
        self.now = 0.0
        #: Per-instant event buckets; list order *is* scheduling order,
        #: which is what the old heap's sequence tiebreak enforced.
        self._buckets: Dict[float, List[_Event]] = {}
        #: Min-heap of the distinct timestamps with a live bucket.
        self._times: List[float] = []
        #: Total events awaiting dispatch, across all buckets.
        self._pending = 0
        self.events_processed = 0
        #: High-water mark of the pending-event set, for the profiler's
        #: event-loop report (how much future the simulation holds open).
        self.max_queue_depth = 0
        if _simulator_observer is not None:
            _simulator_observer(self)

    # -- scheduling ------------------------------------------------------------

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Passing ``args`` through the scheduler instead of closing over
        them keeps the per-event cost to one bucket append — no closure
        allocation on the dispatch path (HOT002).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self.now})")
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((callback, args))
        self._pending += 1
        if self._pending > self.max_queue_depth:
            self.max_queue_depth = self._pending

    def call_after(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` milliseconds.

        The bucket append is inlined rather than delegated to
        :meth:`call_at` — this and :meth:`call_soon` run once per event,
        and the extra frame was a measurable slice of the dispatch loop.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((callback, args))
        self._pending += 1
        if self._pending > self.max_queue_depth:
            self.max_queue_depth = self._pending

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the current simulated time."""
        when = self.now
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((callback, args))
        self._pending += 1
        if self._pending > self.max_queue_depth:
            self.max_queue_depth = self._pending

    # -- futures -----------------------------------------------------------------

    def future(self) -> SimFuture:
        """A fresh unresolved future bound to this simulator."""
        return SimFuture(self)

    # -- processes ------------------------------------------------------------------

    def spawn(self, generator: Generator[Any, Any, Any]) -> SimFuture:
        """Run a generator process; returns a future for its return value.

        The generator may yield:

        * ``int``/``float`` — sleep that many milliseconds;
        * :class:`SimFuture` — suspend until it resolves.  If the future
          failed, its exception is thrown into the generator, so processes
          handle timeouts with ordinary ``try/except``.
        """
        done = self.future()
        process = _Process(self, generator, done)
        self.call_soon(process._step)
        return done

    # -- running -------------------------------------------------------------------------

    def _drain(self, stop_future: Optional[SimFuture], until: Optional[float],
               max_events: int) -> bool:
        """Pop-and-dispatch loop shared by :meth:`run` and
        :meth:`run_until_resolved`.

        Processes events until ``stop_future`` (when given) resolves, the
        horizon ``until`` is hit (clock advances to it), or the queue
        drains.  Returns ``False`` only on a drained queue with the
        awaited future still pending.  ``max_events`` bounds this call;
        ``events_processed`` keeps accumulating across calls.

        The stop condition is a plain attribute read on the future —
        an earlier revision took a ``stop()`` predicate, and the
        per-event call (a ``lambda: False`` for plain ``run``!) was one
        of the largest single entries in the dispatch profile.

        Dispatch is bucket-at-a-time: the clock is set once per distinct
        instant and every event of that instant is applied back to back.
        Events appended to the live bucket mid-drain (``call_soon`` from
        a callback) are picked up by the index walk in append — i.e.
        scheduling — order, exactly as the heap's sequence tiebreak
        ordered them.
        """
        processed = 0
        buckets = self._buckets
        times = self._times
        while stop_future is None or not stop_future._done:
            if not self._pending:
                return False
            when = times[0]
            if until is not None and when > until:
                self.now = until
                return True
            self.now = when
            bucket = buckets[when]
            index = 0
            while index < len(bucket):
                callback, args = bucket[index]
                index += 1
                self._pending -= 1
                callback(*args)
                processed += 1
                self.events_processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a runaway "
                        f"loop")
                if stop_future is not None and stop_future._done:
                    # Keep the unapplied tail for the next drain call.
                    del bucket[:index]
                    if not bucket:
                        del buckets[when]
                        heapq.heappop(times)
                    return True
            del buckets[when]
            heapq.heappop(times)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time when the run stopped.
        """
        self._drain(None, until, max_events)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def first_success(self, futures: List[SimFuture]) -> SimFuture:
        """A future resolving with the first *successful* input result.

        Failures are absorbed until every input has failed, at which point
        the combined future fails with the last error.  This is the
        primitive behind the paper's "multicast to both MEC DNS and the
        network's L-DNS" fallback: whichever resolver answers first wins.
        """
        if not futures:
            raise SimulationError("first_success needs at least one future")
        combined = self.future()
        failures = {"count": 0}

        def on_done(fut: SimFuture) -> None:
            if fut.error is None:
                combined.resolve(fut.result())
                return
            failures["count"] += 1
            if failures["count"] == len(futures):
                combined.fail(fut.error)

        for fut in futures:
            fut.add_done_callback(on_done)
        return combined

    def run_until_resolved(self, future: SimFuture,
                           max_events: int = 10_000_000) -> Any:
        """Run until ``future`` resolves; return its result (or raise)."""
        if not self._drain(future, None, max_events):
            raise SimulationError(
                "event queue drained before the awaited future resolved")
        return future.result()
