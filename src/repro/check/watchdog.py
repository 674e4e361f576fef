"""Deadlock / livelock watchdog.

Three complementary detectors, none of which ever halts the run:

* **bounded-spin starvation** (live) — a context that issues a long
  unbroken run of ``Load``/``LoadAcquire``/``Compute`` effects is
  spinning on a condition nobody is making true. Any other effect
  class (a store, an atomic, a suspend, a send) resets the counter,
  so productive loops never trip it; the runtime's idle/steal probes
  are short bounded generators and stay far below the limit.
* **stalled suspension** (periodic daemon) — a context suspended for
  longer than ``suspend_timeout`` simulated cycles while the machine
  keeps making progress. Runs off :meth:`Simulator.call_daemon`, so
  the watchdog can never keep a quiesced simulation alive or perturb
  event timing.
* **quiescence sweep** (:meth:`finalize`) — once the run is over,
  any context still suspended (an unresolved ``Future``'s waiter, a
  barrier member whose peers never arrived) and any message still
  sitting undelivered in a CMMU input queue is reported with the
  suspension site captured when the context parked itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.check.hb import _site
from repro.check.report import Finding
from repro.proc import effects as fx
from repro.sim.probe import Subscriptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: effect classes that look like one spin iteration
_SPIN_EFFECTS = (fx.Load, fx.LoadAcquire, fx.Compute)


class DeadlockWatchdog:
    """Deadlock/livelock watchdog for one machine."""

    name = "deadlock"

    def __init__(
        self,
        machine: "Machine",
        emit: Callable[[Finding], None],
        spin_limit: int = 50_000,
        suspend_timeout: int = 50_000_000,
        tick_interval: int = 100_000,
    ) -> None:
        self.machine = machine
        self._emit = emit
        self.spin_limit = spin_limit
        self.suspend_timeout = suspend_timeout
        self.tick_interval = tick_interval
        self._subs = Subscriptions()
        #: cid -> consecutive spin-looking effects
        self._spin: dict[int, int] = {}
        #: cid -> the word its current spin streak last loaded: a
        #: spin-starvation finding's address, whichever of the spin's
        #: effects reaches the limit (None for a streak of Computes)
        self._loaded: dict[int, int] = {}
        #: cid -> (suspend time, site, node, label)
        self._suspended: dict[int, tuple] = {}
        self._flagged_spin: set[int] = set()
        self._flagged_stall: set[int] = set()
        self._stopped = False
        self._attach()
        machine.sim.call_daemon(self.tick_interval, self._tick)

    # ------------------------------------------------------------------
    def _attach(self) -> None:
        for node_obj in self.machine.nodes:
            proc = node_obj.processor

            def execute(ctx, eff, node=node_obj.node_id):
                cid = ctx.cid
                if isinstance(eff, _SPIN_EFFECTS):
                    count = self._spin.get(cid, 0) + 1
                    self._spin[cid] = count
                    if eff.__class__ is not fx.Compute:
                        self._loaded[cid] = eff.addr
                    if count == self.spin_limit and cid not in self._flagged_spin:
                        self._flagged_spin.add(cid)
                        self._emit(Finding(
                            checker=self.name,
                            kind="spin-starvation",
                            time=self.machine.sim.now,
                            node=node,
                            addr=self._loaded.get(cid),
                            message=(
                                f"context {ctx.label or ctx.cid!r} issued "
                                f"{count} consecutive load/compute effects "
                                "without progress (unbounded spin?)"
                            ),
                            sites=(_site(ctx),),
                        ))
                else:
                    self._spin.pop(cid, None)
                    self._loaded.pop(cid, None)
                    if eff.__class__ is fx.Suspend:
                        self._suspended[cid] = (
                            self.machine.sim.now, _site(ctx),
                            node, ctx.label,
                        )

            self._subs.add(proc, "before_execute", execute)
            self._subs.add(proc, "before_enqueue", self._enqueued)
            self._subs.add(proc, "after_finish", self._finished)

    def _enqueued(self, ctx, resumed: bool) -> None:
        if resumed:
            self._suspended.pop(ctx.cid, None)

    def _finished(self, ctx) -> None:
        self._spin.pop(ctx.cid, None)
        self._loaded.pop(ctx.cid, None)
        self._suspended.pop(ctx.cid, None)

    def detach(self) -> None:
        self._stopped = True
        self._subs.clear()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.machine.sim.now
        for cid, (t0, site, node, label) in self._suspended.items():
            if now - t0 > self.suspend_timeout and cid not in self._flagged_stall:
                self._flagged_stall.add(cid)
                self._emit(Finding(
                    checker=self.name,
                    kind="stalled-context",
                    time=now,
                    node=node,
                    message=(
                        f"context {label or cid!r} suspended since t={t0} "
                        f"({now - t0} cycles) while the machine kept running"
                    ),
                    sites=(site,),
                ))
        self.machine.sim.call_daemon(self.tick_interval, self._tick)

    def finalize(self) -> None:
        now = self.machine.sim.now
        for cid, (t0, site, node, label) in sorted(self._suspended.items()):
            self._emit(Finding(
                checker=self.name,
                kind="suspended-at-quiescence",
                time=now,
                node=node,
                message=(
                    f"context {label or cid!r} suspended at t={t0} was never "
                    "resumed (unresolved future / missing barrier arrival?)"
                ),
                sites=(site,),
            ))
        for node_obj in self.machine.nodes:
            if node_obj.cmmu.in_queue:
                kinds = sorted({m.mtype for m in node_obj.cmmu.in_queue})
                self._emit(Finding(
                    checker=self.name,
                    kind="undelivered-messages",
                    time=now,
                    node=node_obj.node_id,
                    message=(
                        f"{len(node_obj.cmmu.in_queue)} message(s) "
                        f"({', '.join(kinds)}) still queued at node "
                        f"{node_obj.node_id} at quiescence"
                    ),
                ))
