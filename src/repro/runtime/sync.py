"""Synchronization primitives for simulated threads.

* :class:`Future` — runtime-level completion object used by the lazy
  task creation scheduler and for general signalling. Metadata lives
  at the Python level; waiting/waking goes through the processor's
  Suspend machinery so blocked threads genuinely leave the CPU.
* :class:`SpinLock` — a test-and-test-and-set lock on a shared-memory
  word. All of its cost is *simulated*: the FetchOp pays the coherence
  protocol's write-ownership transaction, contended spinning bounces
  the lock's cache line exactly as on the real machine.

The acquire/release-annotated effects (:class:`LoadAcquire`,
:class:`StoreRelease`) and the :mod:`repro.check.hooks` calls are for
the dynamic checkers only — they execute and cost exactly like their
plain counterparts.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable, Generator

from repro.check import hooks
from repro.proc.effects import (
    Compute,
    FetchOp,
    Load,
    LoadAcquire,
    StoreRelease,
    Suspend,
)
from repro.sim.engine import SimulationError

_future_ids = itertools.count()


def _caller_site(depth: int = 2) -> str:
    """``file.py:lineno`` of the caller ``depth`` frames up."""
    frame = sys._getframe(depth)
    fname = frame.f_code.co_filename.rsplit("/", 1)[-1]
    return f"{fname}:{frame.f_lineno}"


class Future:
    """A write-once value with suspend-until-resolved semantics."""

    __slots__ = ("fid", "resolved", "value", "_waiters", "_resolve_site")

    def __init__(self) -> None:
        self.fid = next(_future_ids)
        self.resolved = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self._resolve_site: str | None = None

    def resolve(self, value: Any = None) -> None:
        """Resolve and wake every waiter (each re-enters its
        processor's ready queue)."""
        site = _caller_site()
        if self.resolved:
            raise SimulationError(
                f"future #{self.fid} resolved twice: first at "
                f"{self._resolve_site}, again at {site} "
                f"(first value {self.value!r}, second {value!r})"
            )
        self.resolved = True
        self.value = value
        self._resolve_site = site
        if hooks.SINKS:
            hooks.signal(("future", self.fid))
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)

    def wait(self) -> Generator:
        """Effect-generator: block the calling thread until resolved.

        ``value = yield from fut.wait()``
        """
        if self.resolved:
            if hooks.SINKS:
                hooks.observe(("future", self.fid))
            return self.value
        value = yield Suspend(self._waiters.append)
        if hooks.SINKS:
            hooks.observe(("future", self.fid))
        return value

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register a raw resume callback (used by scheduler internals)."""
        if self.resolved:
            if hooks.SINKS:
                hooks.observe(("future", self.fid))
            resume(self.value)
        else:
            self._waiters.append(resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"={self.value!r}" if self.resolved else " pending"
        return f"<Future#{self.fid}{state}>"


class SpinLock:
    """Test-and-test-and-set lock with exponential backoff.

    The lock word must be allocated by the caller (one per cache line
    to avoid false sharing): ``lock = SpinLock(machine.alloc(node, 8))``.

    Backoff matters enormously here: an eager spinner's re-read pulls
    the line out of the holder's cache (a three-party forward), and
    the holder's release then pays invalidations to every spinner — a
    classic convoy. Exponential backoff [Mellor-Crummey & Scott '91,
    which the paper cites] keeps contended critical sections short.
    """

    #: first backoff between probes and its cap (cycles; it doubles)
    SPIN_BACKOFF = 16
    SPIN_BACKOFF_MAX = 512

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def acquire(self) -> Generator:
        """``yield from lock.acquire()``"""
        backoff = self.SPIN_BACKOFF
        while True:
            old = yield FetchOp(self.addr, lambda _v: 1)
            if old == 0:
                return
            # spin on a (cached) read until the holder releases, then
            # race for the test-and-set again
            while True:
                yield Compute(backoff)
                backoff = min(backoff * 2, self.SPIN_BACKOFF_MAX)
                v = yield LoadAcquire(self.addr)
                if v == 0:
                    break

    def try_acquire(self) -> Generator:
        """Single test-and-set attempt; returns True on success.

        Tests with a read first so a failed attempt does not yank
        write ownership away from the lock holder.
        """
        v = yield LoadAcquire(self.addr)
        if v:
            return False
        old = yield FetchOp(self.addr, lambda _v: 1)
        return old == 0

    def acquire_bounded(self, max_attempts: int = 2) -> Generator:
        """Acquire with a bounded number of *plain* test-and-set
        rounds; returns True on success, False after giving up.

        Used by work stealing. Unlike the test-and-test-and-set fast
        path, a raw FetchOp queues the read-modify-write at the line's
        home, where transactions are served FIFO — so a remote thief
        competes fairly with a local owner that releases and instantly
        re-acquires. (With read-first spinning the remote thief never
        wins that race: its re-read alone costs a three-party miss.)
        A failed steal must also be cheap, because at fine grain most
        steals fail — hence the bound.
        """
        backoff = self.SPIN_BACKOFF
        for attempt in range(max_attempts):
            old = yield FetchOp(self.addr, lambda _v: 1)
            if old == 0:
                return True
            if attempt + 1 < max_attempts:
                yield Compute(backoff)
                backoff = min(backoff * 2, self.SPIN_BACKOFF_MAX)
        return False

    def release(self) -> Generator:
        """``yield from lock.release()``"""
        yield StoreRelease(self.addr, 0)


def fetch_increment(addr: int) -> FetchOp:
    """Atomic counter bump; resumes with the pre-increment value."""
    return FetchOp(addr, lambda v: v + 1)
