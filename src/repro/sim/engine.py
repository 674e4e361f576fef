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
:class:`EventHandle` or queues a daemon (observer) event. Every
:meth:`Simulator.run` drains the queue through one inlined loop.
Host speed changes, simulated timing does not.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import sys
from collections import deque
from typing import Callable

#: the ``until`` of a run without one: no simulated time reaches it
_FOREVER = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for fatal inconsistencies inside the simulator."""


class _Event:
    """Queue entry for a cancellable event (only allocated when a handle
    is taken) or a daemon (observer) event. Bare callables are the
    common entry; these take the drain loop's slower branch."""

    __slots__ = ("time", "fn", "cancelled", "fired", "daemon")

    def __init__(self, time: int, fn: Callable[[], None], daemon: bool = False) -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.fired = False
        self.daemon = daemon


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
        bucket.append(_Event(when, fn, daemon=True))

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

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the clock would pass this cycle (events at exactly
            ``until`` still run); the clock then rests at ``until``.
        max_events:
            Safety valve against runaway simulations: raise
            :class:`SimulationError` right after the ``max_events``-th
            event of this call.

        The run also stops, without firing it, at the first daemon
        (observer) event it reaches once no model event is left.

        Every run drains through the one loop in :meth:`_drain`. The
        cyclic garbage collector is paused only for an unconditioned
        drain (no ``until``, no ``max_events``, no daemon events
        queued), the tight loop the experiments use: it allocates
        heavily (closures, packets, events), but nearly everything
        dies young and is freed by refcounting, so collection passes
        mid-drain are pure overhead. Other drains keep the collector
        running: each finished task and its future form a reference
        cycle, and so does each batch runner through its pre-bound
        callbacks, and a long ``Runtime.run_to_completion`` drain
        would hold them all until it ends.

        Returns the simulated time at exit.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be positive, got {max_events!r}")
        pause_gc = (until is None and max_events is None and not self._daemons
                    and gc.isenabled())
        self._running = True
        if pause_gc:
            gc.disable()
        try:
            fired = self._drain(_FOREVER if until is None else until,
                                -1 if max_events is None else max_events)
        finally:
            self._running = False
            if pause_gc:
                gc.enable()
        if fired == max_events:
            raise SimulationError(
                f"exceeded max_events={max_events} (runaway simulation?)"
            )
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _drain(self, end: int, stop: int) -> int:
        """Fire events in time order through cycle ``end``, stopping
        right after the ``stop``-th; returns how many fired. ``-1``
        means no limit (CPython 3.11 specializes the per-event
        ``n == stop`` for small ints like -1, not for ``sys.maxsize``).

        Pop and dispatch are inlined. ``events_processed`` and
        ``_live`` are counted in locals and flushed on exit and before
        a daemon event fires (the one kind of callback that reads
        them). Callbacks may append to the bucket being drained
        (same-cycle chains); ``while bucket`` picks those up in FIFO
        order, and the bucket invariant gives non-decreasing times.
        Cancelled events, handle events and daemons take the
        ``_Event`` branch.
        """
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        n = 0  # events fired by this call
        flushed = 0  # of them, already counted in _live/events_processed
        try:
            while times:
                t = times[0]
                if t > end:
                    return n
                bucket = buckets[t]
                while bucket:
                    if n == stop:
                        return n
                    item = bucket.popleft()
                    if item.__class__ is _Event:
                        # cancelled events never advance now
                        if item.cancelled:
                            continue
                        if item.daemon:
                            if self._live - (n - flushed) <= self._daemons:
                                # no model event is left, and daemons
                                # never extend the run on their own
                                bucket.appendleft(item)
                                return n
                            self._daemons -= 1
                            # one an ``until`` moved the idle clock
                            # past fires late, at now
                            if self.now < t:
                                self.now = t
                            n += 1
                            self._live -= n - flushed
                            self.events_processed += n - flushed
                            flushed = n
                        else:
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
            return n
        finally:
            self._live -= n - flushed
            self.events_processed += n - flushed

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
