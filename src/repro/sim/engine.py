"""Discrete-event simulation engine.

The engine is the beating heart of the Alewife model: every
architectural component (network links, directory controllers, DMA
engines, processors) schedules callbacks on a single global event
queue keyed by the simulated cycle count.

Events scheduled for the same cycle fire in FIFO order of scheduling,
which keeps runs fully deterministic.

Hot-path design
---------------
Millions of events per run make the per-event constant factor the
simulator's wall-clock bottleneck, so the queue is a *time-bucketed
calendar*: a dict mapping each pending cycle to a FIFO deque of
items, plus a small binary heap holding each distinct pending cycle
exactly once. Scheduling an event is a dict lookup and a deque
append; the heap is touched only when a cycle gains its first event.
Model events cluster heavily on a few near-future cycles (every
processor's cache-hit completions and spin backoffs land on the same
handful of latencies), so heap traffic collapses from one push+pop
per *event* to one per *distinct cycle* — and no ``(time, seq,
item)`` tuple is allocated at all: append order within a bucket *is*
the global FIFO order for that cycle, which keeps runs exactly as
deterministic as the old sequence-numbered heap.

A bucket item is either a bare callable (the handle-free
:meth:`Simulator.call_after` fast path — nothing to allocate, nothing
to cancel) or a ``_Event`` record when the caller needs an
:class:`EventHandle`. Host speed changes, simulated timing does not.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from collections import deque
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for fatal inconsistencies inside the simulator."""


class _Event:
    """Cancellable queue entry (only allocated when a handle is taken)."""

    __slots__ = ("time", "fn", "cancelled", "fired")

    def __init__(self, time: int, fn: Callable[[], None]) -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.fired = False


class _Daemon:
    """Queue entry for a daemon (observer) event.

    Callable so :meth:`Simulator.step` runs it through the same bare
    ``item()`` path as handle-free events; the only extra work is
    keeping the simulator's daemon count current.
    """

    __slots__ = ("_sim", "fn")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]) -> None:
        self._sim = sim
        self.fn = fn

    def __call__(self) -> None:
        self._sim._daemons -= 1
        self.fn()


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent).

        Cancelling an event that has already *fired* is a documented
        no-op: the callback ran, and the handle's ``fired`` property
        stays True (``cancelled`` stays False) so callers can observe
        which race they lost.
        """
        ev = self._event
        if ev.fired or ev.cancelled:
            return
        ev.cancelled = True
        self._sim._live -= 1

    @property
    def time(self) -> int:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has run."""
        return self._event.fired


class Simulator:
    """Priority-queue discrete-event simulator with an integer clock.

    The clock unit is one processor cycle (33 MHz in the default
    Alewife configuration, i.e. ~30.3 ns per cycle).
    """

    __slots__ = (
        "_buckets", "_times", "_live", "_daemons",
        "now", "_running", "events_processed", "ids",
    )

    def __init__(self) -> None:
        #: cycle -> FIFO of items due that cycle (append order == fire order)
        self._buckets: dict[int, deque] = {}
        #: min-heap of the distinct cycles present in ``_buckets``
        self._times: list[int] = []
        self._live = 0  # not-cancelled, not-yet-fired events (O(1) pending)
        self._daemons = 0  # live daemon (observer) events; never keep a run alive
        self.now: int = 0
        self._running = False
        self.events_processed: int = 0
        #: the machine's id source (execution contexts, channels):
        #: traces name things by these ids, so they count per machine,
        #: never across everything the process has simulated
        self.ids = itertools.count()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _when(self, delay) -> int:
        if type(delay) is int:  # common case: integer cycles, no ceil math
            if delay < 0:
                raise SimulationError(f"negative delay {delay!r}")
            return self.now + delay
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # ceil for fractional delays (bandwidth division can produce
        # fractions; the hardware rounds to whole cycles)
        return self.now + int(-(-delay // 1))

    def schedule(self, delay, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; fractional delays are rounded
        up. Returns a handle that can cancel the event. Hot paths that
        never cancel should prefer :meth:`call_after`.
        """
        when = self._when(delay)
        ev = _Event(when, fn)
        self._live += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = deque()
            heapq.heappush(self._times, when)
        bucket.append(ev)
        return EventHandle(ev, self)

    def call_after(self, delay, fn: Callable[[], None]) -> None:
        """Handle-free fast-path scheduling for hot loops.

        Fires ``fn`` exactly as :meth:`schedule` would (same global
        FIFO ordering for same-cycle events) but allocates no event
        record and no handle — one dict probe and a deque append, with
        a heap push only when ``now + delay`` is a brand-new cycle.
        """
        if type(delay) is int:  # inline the _when fast path: this is
            if delay < 0:      # the hottest scheduling call in the model
                raise SimulationError(f"negative delay {delay!r}")
            when = self.now + delay
        else:
            when = self._when(delay)
        self._live += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = deque()
            heapq.heappush(self._times, when)
        bucket.append(fn)

    def call_daemon(self, delay, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` as a *daemon* (observer) event.

        Daemon events fire like :meth:`call_after` events while model
        work remains, but they never keep the simulation alive:
        :meth:`run` returns — without firing them — once only daemon
        events are left in the queue, so a self-rescheduling sampler
        cannot spin the run forever or push ``now`` past the last
        model event. Daemon callbacks must not mutate model state.
        """
        when = self._when(delay)
        self._live += 1
        self._daemons += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = deque()
            heapq.heappush(self._times, when)
        bucket.append(_Daemon(self, fn))

    def schedule_at(self, when: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at absolute cycle ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        return self.schedule(when - self.now, fn)

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule_at` (see :meth:`call_after`)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        if when.__class__ is not int:
            when = self.now + int(-(-(when - self.now) // 1))
        self._live += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = deque()
            heapq.heappush(self._times, when)
        bucket.append(fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self):
        """Pop the globally next live ``(when, item)``, or None.
        Skips cancelled events; retires drained time buckets."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            while bucket:
                item = bucket.popleft()
                if item.__class__ is _Event and item.cancelled:
                    continue
                return t, item
            # bucket drained with nothing live at t: retire it. A
            # same-cycle reschedule can only happen *while* an event at
            # t is running, so nothing can repopulate t after this.
            heapq.heappop(times)
            del buckets[t]
        return None

    def _next_time(self):
        """Time of the next live event without popping it, or None."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            while bucket and bucket[0].__class__ is _Event and bucket[0].cancelled:
                bucket.popleft()
            if bucket:
                return t
            heapq.heappop(times)
            del buckets[t]
        return None

    def step(self) -> bool:
        """Run a single event. Returns False when the queue is empty."""
        nxt = self._pop_next()
        if nxt is None:
            return False
        when, item = nxt
        if when < self.now:
            raise SimulationError("event queue time went backwards")
        self.now = when
        self._live -= 1
        self.events_processed += 1
        if item.__class__ is _Event:
            item.fired = True
            item.fn()
        else:
            item()
        return True

    def run(
        self,
        until: int | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the clock would pass this cycle (events at exactly
            ``until`` still run).
        max_events:
            Safety valve against runaway simulations.
        stop_when:
            Checked after every event; when it returns True the run
            stops early.

        Returns the simulated time at exit.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        stopped_early = False
        try:
            if until is None and max_events is None and stop_when is None:
                if self._daemons:
                    # stop once only daemon (observer) events remain;
                    # they never extend the run on their own
                    while self._live > self._daemons and self.step():
                        pass
                else:
                    # Unconditioned drain: the tight loop the
                    # experiments use. Pop/dispatch inlined (no
                    # step()/_pop_next() call per event), buckets and
                    # heappop bound to locals, events_processed and
                    # _live accumulated locally and flushed in
                    # ``finally`` (nothing can observe them mid-run
                    # without daemons). Within a bucket, callbacks may
                    # append to the deque being drained (same-cycle
                    # chains), and the inner ``while bucket`` picks
                    # those up in FIFO order. The bucket invariant gives
                    # non-decreasing times, so the backwards-clock
                    # check lives only in the conditioned paths.
                    # The drain allocates heavily (closures, packets,
                    # events) but nearly everything dies young and is
                    # freed by refcounting; cyclic-GC passes mid-drain
                    # are pure overhead. Pause collection for the
                    # drain, restoring the caller's setting after.
                    gc_was_enabled = gc.isenabled()
                    if gc_was_enabled:
                        gc.disable()
                    times = self._times
                    buckets = self._buckets
                    heappop = heapq.heappop
                    n = 0
                    try:
                        while times:
                            t = times[0]
                            bucket = buckets[t]
                            while bucket:
                                item = bucket.popleft()
                                if item.__class__ is _Event:
                                    # cancelled events never advance now
                                    if item.cancelled:
                                        continue
                                    self.now = t
                                    n += 1
                                    item.fired = True
                                    item.fn()
                                else:
                                    self.now = t
                                    n += 1
                                    item()
                            heappop(times)
                            del buckets[t]
                    finally:
                        self._live -= n
                        self.events_processed += n
                        if gc_was_enabled:
                            gc.enable()
            else:
                while True:
                    if self._live <= self._daemons:
                        break
                    nxt = self._next_time()
                    if nxt is None:
                        break
                    if until is not None and nxt > until:
                        break
                    if not self.step():
                        break
                    processed += 1
                    if stop_when is not None and stop_when():
                        stopped_early = True
                        break
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} (runaway simulation?)"
                        )
        finally:
            self._running = False
        if until is not None and not stopped_early:
            self.now = max(self.now, until)
        return self.now

    def next_model_time(self):
        """Time of the next live *model* event, or None when the queue
        holds nothing but daemon (observer) events, which cannot keep
        :meth:`run` alive either. A driver that steps the machine one
        time bucket at a time (the coherence explorer) passes it to
        ``run(until=...)``. (The returned time may itself belong to a
        daemon event when model work remains elsewhere.)"""
        if self._live <= self._daemons:
            return None
        return self._next_time()

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending}>"


class Resource:
    """A serially-reusable resource (memory port, DMA engine, link).

    Models occupancy: each acquisition holds the resource for a given
    number of cycles; requests that arrive while it is busy queue up
    FIFO. ``acquire`` returns the cycle at which the requested usage
    *completes* and immediately reserves the slot.
    """

    __slots__ = ("sim", "busy_until", "name", "total_busy")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.busy_until: int = 0
        self.name = name
        self.total_busy: int = 0  # cycles of occupancy, for utilization stats

    def acquire(self, occupancy: int, earliest: int | None = None) -> int:
        """Reserve the resource for ``occupancy`` cycles.

        ``earliest`` is the first cycle the work could start (defaults
        to now; values in the past clamp to now — a resource cannot
        retroactively have been busy). Returns the completion cycle.
        """
        if occupancy < 0:
            raise SimulationError(f"negative occupancy {occupancy!r}")
        start = self.busy_until
        now = self.sim.now
        if start < now:
            start = now
        if earliest is not None and start < earliest:
            start = earliest
        self.busy_until = start + occupancy
        self.total_busy += occupancy
        return self.busy_until

    def available_at(self) -> int:
        """Cycle at which the resource next becomes free."""
        return max(self.busy_until, self.sim.now)
