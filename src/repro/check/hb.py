"""Happens-before data-race detector.

Vector-clock race detection over the simulator's effect stream, in
the FastTrack style (one epoch per access, full clock per context):
every execution context carries a vector clock ``{cid: epoch}``;
per address the detector keeps the last write epoch and the set of
reads since that write; an access races iff the prior conflicting
access is not ordered before it (``vc[prior_cid] < prior_epoch``).

Happens-before edges come from every synchronization mechanism the
machine offers:

=====================================  ===================================
edge                                   where it is captured
=====================================  ===================================
message ``Send`` → handler body        send-time clock snapshot attached
                                       to the launched ``Message``,
                                       joined when the handler first steps
thread spawn / ``Suspend`` resume      ``before_enqueue`` probe joins
                                       the enqueuing context's clock
``StoreRelease`` → ``LoadAcquire``     per-address release clock
(locks, SM barriers, SM queues, ...)   (``signal``/``observe`` on the
                                       address itself)
``FetchOp`` (atomics)                  acquire **and** release on its
                                       address
``Future.resolve`` → ``wait``          ``("future", fid)`` hook key
``Runtime.make_task`` → task body      ``("task", tid)`` hook key
MP tree (barrier and reduce)           ``("mptree-up", ...)`` /
arrival → release                      ``("mptree-down", ...)`` hook keys
DMA / ``Storeback``                    via the carrying message's clock
=====================================  ===================================

Two soundness-preserving approximations (each can only *add* HB
edges, i.e. hide a race — neither can fabricate one):

* **Sync-address contamination** — an address ever accessed with
  acquire/release/atomic semantics is treated as a synchronization
  variable forever; plain accesses to it act as acquire (read) or
  release (write). This absorbs the store-buffer redo path, which
  re-issues a blocked ``StoreRelease`` as a plain ``Store``.
* **Deferred acquire join** — a ``LoadAcquire`` is *issued* cycles
  before its value arrives, so the release it observes may complete
  in between. Acquires therefore join the release clock immediately
  *and again* at the context's next tracked operation, by which time
  the load has completed.

Two exact economies make the cost per synchronization event, not per
spin iteration or per context ever created (docs/CHECKING.md, "Cost"):
a context skips re-joining a release-clock version it already joined
(clocks only grow), and its own entry enters its clock with its first
recorded data access (an entry published before then is below every
epoch the context records, so it never decides a check).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.check.report import Finding
from repro.proc import effects as fx
from repro.sim.probe import Subscriptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.proc.processor import Context

#: tracked memory-access effects -> access kind
_ACCESS_KIND = {
    fx.Load: "load",
    fx.LoadAcquire: "acquire",
    fx.Store: "store",
    fx.StoreRelease: "release",
    fx.FetchOp: "fetchop",
}

_RACE_KIND = {
    ("w", "w"): "write-write",
    ("w", "r"): "write-read",
    ("r", "w"): "read-write",
}


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    for cid, epoch in other.items():
        if into.get(cid, 0) < epoch:
            into[cid] = epoch


def _tick(vc: dict[int, int], cid: int) -> None:
    """Advance ``cid``'s epoch after a publish (once it has one)."""
    if cid in vc:
        vc[cid] += 1


def _site(ctx: "Context") -> str:
    """Source location of the context's current yield point."""
    gen = ctx.gen
    frame = getattr(gen, "gi_frame", None)
    while True:  # descend the ``yield from`` delegation chain
        sub = getattr(gen, "gi_yieldfrom", None)
        sub_frame = getattr(sub, "gi_frame", None)
        if sub_frame is None:
            break
        gen, frame = sub, sub_frame
    if frame is None:  # pragma: no cover - finished generator
        return ctx.label or "?"
    loc = f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"
    return f"{loc} ({ctx.label})" if ctx.label else loc


class RaceDetector:
    """Happens-before race detector for one machine.

    Subscribes to every processor's step, execute, enqueue and finish
    probes and every CMMU's ``after_launch`` (:mod:`repro.sim.probe`);
    registers itself as a :mod:`repro.check.hooks` sink for
    runtime-level edges. The machine runs on the thread that built the
    detector, and the sink ignores hook calls made on any other.
    """

    name = "race"

    def __init__(self, machine: "Machine", emit: Callable[[Finding], None]) -> None:
        self.machine = machine
        self._emit = emit
        self._subs = Subscriptions()
        #: the thread the machine runs on (hook calls from others are
        #: another machine's)
        self._thread = threading.get_ident()
        #: cid -> vector clock {cid: epoch}; the own entry appears with
        #: the context's first recorded data access
        self._vc: dict[int, dict[int, int]] = {}
        #: cid -> sync addresses whose release clock must be re-joined
        #: (an insertion-ordered set)
        self._pending: dict[int, dict[int, None]] = {}
        #: cid -> {sync address: release-clock version already joined}
        self._absorbed: dict[int, dict[int, int]] = {}
        #: executing contexts, innermost last (nested ``_step`` extents)
        self._active: list["Context"] = []
        #: sync address -> merged clock of every release on it
        self._rel: dict[int, dict[int, int]] = {}
        #: sync address -> releases merged into its clock so far
        self._version: dict[int, int] = {}
        #: hook key -> merged clock of every ``signal`` on it
        self._slots: dict[tuple, dict[int, int]] = {}
        #: (dst, mtype, id(operands)) -> FIFO of send-time clocks
        self._send_clocks: dict[tuple, deque] = {}
        #: addresses promoted to synchronization variables
        self._sync: set[int] = set()
        #: addr -> (cid, epoch, site, time) of the last write
        self._last_write: dict[int, tuple] = {}
        #: addr -> {cid: (epoch, site, time)} reads since the last write
        self._reads: dict[int, dict[int, tuple]] = {}
        #: dedup: (addr, kind, prior site, site)
        self._seen: set[tuple] = set()
        self._attach()

    # ------------------------------------------------------------------
    # Probe subscriptions
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        sub = self._subs.add
        for node_obj in self.machine.nodes:
            proc = node_obj.processor

            def execute(ctx, eff, node=node_obj.node_id):
                kind = _ACCESS_KIND.get(eff.__class__)
                if kind is not None:
                    self._access(ctx, eff.addr, kind, node)
                elif eff.__class__ is fx.Send:
                    self._on_send(ctx, eff)
                elif eff.__class__ is fx.Suspend:
                    self._flush(ctx.cid)

            sub(proc, "before_step", self._step_begin)
            sub(proc, "after_step", self._step_end)
            sub(proc, "before_execute", execute)
            sub(proc, "before_enqueue", self._enqueue)
            sub(proc, "after_finish", self._finished)
            sub(node_obj.cmmu, "after_launch", self._launched)

    def _new_clock(self, cid: int) -> dict[int, int]:
        """A fresh context's clock: empty until its first recorded data
        access adds the own entry (``_access``)."""
        return {}

    def _step_begin(self, ctx: "Context") -> None:
        if ctx.cid not in self._vc:
            vc = self._vc[ctx.cid] = self._new_clock(ctx.cid)
            clock = getattr(ctx.msg, "_hb_clock", None)
            if clock:
                _join(vc, clock)
        self._active.append(ctx)

    def _step_end(self, ctx: "Context") -> None:
        self._active.pop()

    def _enqueue(self, ctx: "Context", resumed: bool) -> None:
        if self._active:
            src = self._active[-1]
            svc = self._vc.get(src.cid)
            if svc is not None and src is not ctx:
                self._flush(src.cid)
                tvc = self._vc.setdefault(ctx.cid, self._new_clock(ctx.cid))
                _join(tvc, svc)
                _tick(svc, src.cid)

    def _finished(self, ctx: "Context") -> None:
        self._vc.pop(ctx.cid, None)
        self._pending.pop(ctx.cid, None)
        self._absorbed.pop(ctx.cid, None)

    def _launched(self, dst: int, mtype: str, operands, msg) -> None:
        key = (dst, mtype, id(operands))
        fifo = self._send_clocks.get(key)
        if fifo:
            msg._hb_clock = fifo.popleft()
            if not fifo:
                del self._send_clocks[key]

    def detach(self) -> None:
        self._subs.clear()

    def finalize(self) -> None:
        """No quiescence checks of its own (races are reported live)."""

    # ------------------------------------------------------------------
    # Hook sink (repro.check.hooks)
    # ------------------------------------------------------------------
    def signal(self, key: tuple) -> None:
        if threading.get_ident() != self._thread:
            return  # another thread's machine
        ctx = self._active[-1] if self._active else None
        if ctx is None:
            return  # driver-level code: no simulated context to order
        vc = self._vc.get(ctx.cid)
        if vc is None:  # pragma: no cover - ctx always stepped first
            return
        self._flush(ctx.cid)
        slot = self._slots.setdefault(key, {})
        _join(slot, vc)
        _tick(vc, ctx.cid)

    def observe(self, key: tuple) -> None:
        if threading.get_ident() != self._thread:
            return
        ctx = self._active[-1] if self._active else None
        if ctx is None:
            return
        vc = self._vc.get(ctx.cid)
        slot = self._slots.get(key)
        if vc is not None and slot:
            _join(vc, slot)

    # ------------------------------------------------------------------
    # Access processing
    # ------------------------------------------------------------------
    def _acquire(self, cid: int, vc: dict[int, int], addr: int) -> None:
        """Join ``addr``'s release clock into ``vc`` unless this context
        already joined its current version (clocks only grow, so that
        join would change nothing)."""
        version = self._version.get(addr)
        if version is not None:
            absorbed = self._absorbed.setdefault(cid, {})
            if absorbed.get(addr) != version:
                absorbed[addr] = version
                _join(vc, self._rel[addr])

    def _flush(self, cid: int) -> None:
        """Apply the deferred acquire joins recorded for ``cid``."""
        pending = self._pending.get(cid)
        if not pending:
            return
        vc = self._vc[cid]
        for addr in pending:
            self._acquire(cid, vc, addr)
        pending.clear()

    def _access(self, ctx: "Context", addr: int, kind: str, node: int) -> None:
        cid = ctx.cid
        vc = self._vc.get(cid)
        if vc is None:  # pragma: no cover - ctx always stepped first
            vc = self._vc[cid] = self._new_clock(cid)
        sync = addr in self._sync
        if not sync and kind in ("acquire", "release", "fetchop"):
            # first annotated access promotes the address to a sync
            # variable; stale data-race history for it is dropped
            self._sync.add(addr)
            self._last_write.pop(addr, None)
            self._reads.pop(addr, None)
            sync = True
        if sync:
            if kind in ("load", "acquire"):
                self._acquire(cid, vc, addr)
                self._pending.setdefault(cid, {})[addr] = None
            else:  # store / release / fetchop
                self._flush(cid)
                if kind == "fetchop":
                    self._acquire(cid, vc, addr)
                    # An atomic that misses applies its RMW at the home
                    # node *after* issue; a release landing on the
                    # address in between (e.g. an MCS tail swing by the
                    # releaser while the acquirer's swap is in flight)
                    # is invisible here, so defer a re-join to the next
                    # access — same over-approximation as acquires.
                    self._pending.setdefault(cid, {})[addr] = None
                _join(self._rel.setdefault(addr, {}), vc)
                self._version[addr] = self._version.get(addr, 0) + 1
                _tick(vc, cid)
            return

        # plain data access: race check
        self._flush(cid)
        now = self.machine.sim.now
        site = _site(ctx)
        epoch = vc.get(cid)
        if epoch is None:  # first recorded access: publish from here on
            epoch = vc[cid] = 1
        lw = self._last_write.get(addr)
        if kind == "store":
            if lw is not None and lw[0] != cid and vc.get(lw[0], 0) < lw[1]:
                self._report(addr, "w", "w", node, now, lw, site)
            reads = self._reads.pop(addr, None)
            if reads:
                for rcid, rec in reads.items():
                    if rcid != cid and vc.get(rcid, 0) < rec[0]:
                        self._report(addr, "r", "w", node, now, (rcid, *rec), site)
            self._last_write[addr] = (cid, epoch, site, now)
        else:  # load
            if lw is not None and lw[0] != cid and vc.get(lw[0], 0) < lw[1]:
                self._report(addr, "w", "r", node, now, lw, site)
            self._reads.setdefault(addr, {})[cid] = (epoch, site, now)

    def _on_send(self, ctx: "Context", eff) -> None:
        cid = ctx.cid
        vc = self._vc.get(cid)
        if vc is None:  # pragma: no cover - ctx always stepped first
            vc = self._vc[cid] = self._new_clock(cid)
        self._flush(cid)
        key = (eff.dst, eff.mtype, id(eff.operands))
        self._send_clocks.setdefault(key, deque()).append(dict(vc))
        _tick(vc, cid)

    def _report(
        self, addr: int, prior_kind: str, kind: str,
        node: int, now: int, prior: tuple, site: str,
    ) -> None:
        _pcid, _pepoch, psite, ptime = prior
        race = _RACE_KIND[(prior_kind, kind)]
        key = (addr, race, psite, site)
        if key in self._seen:
            return
        self._seen.add(key)
        self._emit(Finding(
            checker=self.name,
            kind=race,
            time=now,
            node=node,
            addr=addr,
            message=(
                f"unsynchronized {race} pair on {addr:#x} "
                f"(earlier access at t={ptime})"
            ),
            sites=(psite, site),
        ))
