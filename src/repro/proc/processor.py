"""Processor model: executes effect-yielding generator contexts.

One context runs at a time. Message arrival interrupts the processor:
if it is idle the handler starts immediately; if a thread is stalled
on a long-latency effect the handler "borrows" the pipeline (Alewife's
Sparcle takes message traps during remote-miss stalls) and any effect
completion for the interrupted thread is deferred until the handler
returns. Handlers run with further message interrupts masked and are
dispatched FIFO.

The processor itself has no scheduling policy: the runtime installs an
``idle_hook`` that supplies work (e.g. a steal attempt) when the ready
queue is empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.cmmu.interface import Cmmu
from repro.cmmu.message import Message
from repro.params import ProcessorParams
from repro.memory.coherence import AccessKind, CoherenceEngine
from repro.memory.store import BackingStore
from repro.proc import effects as fx
from repro.proc.batch import (
    BATCH_CLASSES as _BATCHES, REPORTED_CLASSES as _REPORTED, MicroBatch,
)
from repro.sim.engine import SimulationError, Simulator

HandlerFn = Callable[[Message], Generator]


@dataclass(eq=False, slots=True)  # identity semantics (hashable, used in sets)
class Context:
    """An execution context (thread, handler, or idle-task).

    Slotted: a run creates one Context per thread *and one per message
    handler invocation* — barrier-heavy workloads allocate hundreds of
    thousands of them."""

    gen: Generator
    #: unique per machine (``Simulator.ids``)
    cid: int
    label: str = ""
    is_handler: bool = False
    msg: Message | None = None
    on_finish: Callable[[Any], None] | None = None
    finished: bool = False
    #: a cache miss is outstanding for this context (it may be
    #: switched out late if other work becomes ready meanwhile)
    miss_pending: bool = False
    #: active macro-effect batch runner (repro.proc.batch), if any:
    #: completions route to it instead of resuming the generator
    batch: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "handler" if self.is_handler else "thread"
        return f"<Context#{self.cid} {kind} {self.label!r}>"


@dataclass
class ProcessorStats:
    contexts_run: int = 0
    handlers_run: int = 0
    effects: int = 0
    idle_probes: int = 0
    busy_cycles: int = 0
    miss_switches: int = 0


class Processor:
    """A single Alewife node's processor (Sparcle-like)."""

    #: probe points (repro.sim.probe) and the arguments they fire with
    PROBES = (
        "before_step", "after_step",        # (ctx): around _step
        # around effect dispatch. before_execute fires with (ctx, eff)
        # and makes _step run each macro-effect's micro() program;
        # after_execute fires with (ctx, effect class), once per
        # element on both paths (batch runners report what they issue)
        "before_execute", "after_execute",
        "before_enqueue",                   # (ctx, resumed): joins the ready queue
        "after_spawn",                      # (ctx): run_thread made a thread
        "before_finish", "after_finish",    # (ctx): its generator returned
        "before_handler",                   # (msg): a message handler starts
        "after_dispatch",                   # (): the dispatcher ran
    )
    __slots__ = (
        "sim", "node", "cmmu", "coherence", "store", "p", "handlers", "ready",
        "current", "in_handler", "imask", "idle_hook", "_deferred",
        "_dispatch_pending", "_stalled", "_store_buffer", "_store_slot_seq",
        "_fence_waiters", "stats", *PROBES,
    )

    def __init__(
        self,
        sim: Simulator,
        node: int,
        cmmu: Cmmu,
        coherence: CoherenceEngine,
        store: BackingStore,
        params: ProcessorParams | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.cmmu = cmmu
        self.coherence = coherence
        self.store = store
        self.p = params or ProcessorParams()
        self.handlers: dict[str, HandlerFn] = {}
        #: runnable contexts. This, ``_deferred`` and ``Cmmu.in_queue``
        #: start as None and become deques at their first append (an
        #: empty deque is 760 B a node), so readers treat None as empty
        self.ready: deque[tuple[Context, Any, bool]] | None = None
        self.current: Context | None = None
        self.in_handler = False
        self.imask = False
        #: runtime-supplied: return a generator of work to try when
        #: idle, or None to sleep until kicked
        self.idle_hook: Callable[[], Generator | None] | None = None
        #: completions held back while a handler owns the pipeline
        self._deferred: deque[tuple[Context, Any]] | None = None
        self._dispatch_pending = False
        #: contexts switched out on a cache miss (Sparcle fast switch);
        #: each occupies one of the hw_contexts - 1 shadow register sets
        self._stalled: set[Context] = set()
        #: weak ordering: in-flight buffered stores as {slot_id: (addr, value)}
        self._store_buffer: dict[int, tuple[int, Any]] = {}
        self._store_slot_seq = 0
        #: contexts parked on a Fence (or a full buffer), resumed on drain
        self._fence_waiters: list[tuple[Context, bool]] = []
        self.stats = ProcessorStats()
        for point in self.PROBES:
            setattr(self, point, ())
        cmmu.on_message = self._message_available

    # ------------------------------------------------------------------
    # Public API (used by the runtime)
    # ------------------------------------------------------------------
    def register_handler(self, mtype: str, fn: HandlerFn) -> None:
        if mtype in self.handlers:
            raise SimulationError(f"handler {mtype!r} already registered on node {self.node}")
        self.handlers[mtype] = fn

    def run_thread(
        self,
        gen: Generator,
        on_finish: Callable[[Any], None] | None = None,
        label: str = "",
        front: bool = False,
    ) -> Context:
        """Enqueue a new thread context; it runs when the processor
        gets to it."""
        ctx = Context(gen=gen, cid=next(self.sim.ids), label=label,
                      on_finish=on_finish)
        self._enqueue_ready(ctx, None, False, front=front)
        for fn in self.after_spawn:
            fn(ctx)
        return ctx

    def _enqueue_ready(
        self, ctx: Context, value: Any, resumed: bool, front: bool = False
    ) -> None:
        for fn in self.before_enqueue:
            fn(ctx, resumed)
        entry = (ctx, value, resumed)
        ready = self.ready
        if ready is None:
            ready = self.ready = deque()
        if front:
            ready.appendleft(entry)
        else:
            ready.append(entry)
        self._late_switch_check()
        self._schedule_dispatch()

    def kick(self) -> None:
        """Wake the processor (e.g. after the runtime changed state)."""
        self._schedule_dispatch()

    @property
    def busy(self) -> bool:
        return self.current is not None or self.in_handler

    def register_metrics(self, reg, **labels) -> None:
        """Register this processor's instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "processor", **labels}
        for name in ("contexts_run", "handlers_run", "effects", "idle_probes",
                     "busy_cycles", "miss_switches"):
            reg.counter(f"proc.{name}", lambda n=name: getattr(s, n), **labels)
        reg.gauge("proc.ready_depth", lambda: len(self.ready or ()), **labels)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _schedule_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.sim.call_after(0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if self.busy:
            pass
        # 1. pending message interrupts win (they would have trapped us
        #    the moment we became interruptible)
        elif self.cmmu.in_queue and not self.imask:
            self._enter_handler()
        # 2. ready threads
        elif self.ready:
            ctx, value, resumed = self.ready.popleft()
            self.current = ctx
            self.stats.contexts_run += 1
            cost = self.p.context_switch if resumed else 0
            if cost:
                self.sim.call_after(cost, lambda: self._step(ctx, value))
            else:
                self._step(ctx, value)
        # 3. ask the runtime for idle work
        elif self.idle_hook is not None:
            gen = self.idle_hook()
            if gen is not None:
                self.stats.idle_probes += 1
                ctx = Context(gen=gen, cid=next(self.sim.ids),
                              label=f"idle@{self.node}")
                self.current = ctx
                self._step(ctx, None)
        # 4. otherwise sleep until kicked
        for fn in self.after_dispatch:
            fn()

    # ------------------------------------------------------------------
    # Message interrupts
    # ------------------------------------------------------------------
    def _message_available(self) -> None:
        if self.imask or self.in_handler:
            self.cmmu.stats.queued_while_masked += 1
            return
        if self.current is None:
            self._schedule_dispatch()
        else:
            # borrow the pipeline from the (stalled) current thread
            self._enter_handler()

    def _enter_handler(self) -> None:
        if self.in_handler:  # pragma: no cover - guarded by callers
            raise SimulationError("nested handler entry")
        msg = self.cmmu.pop_message()
        for fn in self.before_handler:
            fn(msg)
        fn = self.handlers.get(msg.mtype)
        if fn is None:
            raise SimulationError(
                f"node {self.node}: no handler for message type {msg.mtype!r}"
            )
        self.in_handler = True
        self.cmmu.stats.interrupts_raised += 1
        self.stats.handlers_run += 1
        ctx = Context(gen=fn(msg), cid=next(self.sim.ids),
                      label=f"h:{msg.mtype}", is_handler=True, msg=msg)
        self.sim.call_after(self.cmmu.p.interrupt_entry, lambda: self._step(ctx, None))

    def _exit_handler(self) -> None:
        def finish() -> None:
            self.in_handler = False
            # back-to-back interrupts: take the next message first
            if self.cmmu.in_queue and not self.imask:
                self._enter_handler()
                return
            # then deferred completions. Route back through _complete
            # (not _step): a deferred context may belong to a stalled
            # hardware context and must rejoin the ready queue. Drain
            # the queue as it stands, so re-deferrals (a new interrupt
            # taken by the first completion) start a new one and
            # terminate.
            pending, self._deferred = self._deferred, None
            for ctx, value in pending or ():
                self._complete(ctx, value)
            self._schedule_dispatch()

        self.sim.call_after(self.cmmu.p.interrupt_exit, finish)

    # ------------------------------------------------------------------
    # Effect execution
    # ------------------------------------------------------------------
    def _complete(self, ctx: Context, value: Any = None) -> None:
        """Resume ``ctx`` with ``value`` once its pending effect is done.

        Effect boundaries are the interruptible points: if a handler
        holds the pipeline the resumption is deferred, and if messages
        are waiting the interrupt is taken first. A context that was
        switched out on its miss rejoins the ready queue instead of
        resuming in place (another context owns the pipeline now).
        """
        ctx.miss_pending = False
        if not ctx.is_handler:
            if self.in_handler:
                self._defer(ctx, value)
                return
            if self.cmmu.in_queue and not self.imask:
                self._defer(ctx, value)
                self._enter_handler()
                return
            if ctx in self._stalled:
                self._stalled.discard(ctx)
                self._enqueue_ready(ctx, value, True)
                return
        self._step(ctx, value)

    def _defer(self, ctx: Context, value: Any) -> None:
        if self._deferred is None:
            self._deferred = deque()
        self._deferred.append((ctx, value))

    def _step(self, ctx: Context, send_value: Any) -> None:
        # _step, _execute and CoherenceEngine.access test a probe tuple
        # before looping over it: they carry most probe-site traffic,
        # and an empty-tuple loop costs several times the test
        if self.before_step:
            for fn in self.before_step:
                fn(ctx)
        try:
            # a context mid-macro-batch routes its completion to the
            # batch runner instead of the generator (one resume per
            # *loop*, not per element)
            batch = ctx.batch
            if batch is not None:
                batch.step(send_value)
                return
            try:
                eff = ctx.gen.send(send_value)
            except StopIteration as stop:
                self._finish(ctx, stop.value)
                return
            batch_cls = _BATCHES.get(eff.__class__)
            if batch_cls is not None:
                # macro-effect: start its batch runner, or run its micro
                # program when an observer wants the per-element effect
                # objects (or access stream); an after_execute subscriber
                # gets each element's class from the reporting runner.
                # The envelope object deliberately bypasses _execute and
                # is not counted in stats.effects — each element counts
                # itself, so effect rates stay comparable with unbatched
                # runs.
                if self.before_execute or self.coherence.before_access:
                    batch_cls = MicroBatch
                elif self.after_execute:
                    batch_cls = _REPORTED[eff.__class__]
                ctx.batch = batch = batch_cls(self, ctx, eff)
                batch.step(None)
                return
            self.stats.effects += 1
            self._execute(ctx, eff)
        finally:
            if self.after_step:
                for fn in self.after_step:
                    fn(ctx)

    def _finish(self, ctx: Context, result: Any) -> None:
        for fn in self.before_finish:
            fn(ctx)
        ctx.finished = True
        if not ctx.is_handler and self.current is ctx:
            self.current = None
        if ctx.on_finish is not None:
            ctx.on_finish(result)
        if ctx.is_handler:
            self._exit_handler()
        else:
            self._schedule_dispatch()
        for fn in self.after_finish:
            fn(ctx)

    def _execute(self, ctx: Context, eff) -> None:
        if self.before_execute:
            for fn in self.before_execute:
                fn(ctx, eff)
        # per-class dict dispatch: one hash lookup instead of walking a
        # ~10-arm ``type(eff) is fx.X`` elif chain on every effect
        handler = _EFFECT_DISPATCH.get(eff.__class__)
        if handler is None:
            raise SimulationError(f"unknown effect {eff!r}")
        handler(self, ctx, eff)
        if self.after_execute:
            for fn in self.after_execute:
                fn(ctx, eff.__class__)

    def _eff_compute(self, ctx: Context, eff) -> None:
        cycles = eff.cycles * self.p.compute_unit
        self.stats.busy_cycles += cycles
        self.sim.call_after(cycles, lambda: self._complete(ctx))

    def _eff_load(self, ctx: Context, eff) -> None:
        addr = eff.addr
        if self._store_buffer:
            forwarded = self._forward_from_store_buffer(addr)
            if forwarded is not None:
                self.sim.call_after(
                    self.coherence.p.load_hit, lambda: self._complete(ctx, forwarded[0])
                )
                return
        hit = self.coherence.access(
            self.node, addr, AccessKind.READ,
            lambda: self._complete(ctx, self.store.read(addr)),
        )
        if not hit:
            self._maybe_miss_switch(ctx)

    def _eff_store(self, ctx: Context, eff) -> None:
        addr, value = eff.addr, eff.value
        if self.p.store_buffer_depth > 0:
            self._buffered_store(ctx, addr, value)
            return

        def on_store() -> None:
            self.store.write(addr, value)
            self._complete(ctx)

        hit = self.coherence.access(self.node, addr, AccessKind.WRITE, on_store)
        if not hit:
            self._maybe_miss_switch(ctx)

    def _eff_fetch_op(self, ctx: Context, eff) -> None:
        addr, fn = eff.addr, eff.fn
        if self._store_buffer:
            # atomics have fence semantics: drain first, then retry
            self._fence_waiters.append((ctx, eff))
            return

        def on_rmw() -> None:
            old, _new = self.store.atomically(addr, fn)
            self.sim.call_after(self.p.atomic_extra, lambda: self._complete(ctx, old))

        hit = self.coherence.access(self.node, addr, AccessKind.WRITE, on_rmw)
        if not hit:
            self._maybe_miss_switch(ctx)

    def _eff_fence(self, ctx: Context, eff) -> None:
        if not self._store_buffer:
            self.sim.call_after(1, lambda: self._complete(ctx))
        else:
            self._fence_waiters.append((ctx, None))

    def _eff_prefetch(self, ctx: Context, eff) -> None:
        self.coherence.access(
            self.node, eff.addr, AccessKind.PREFETCH, lambda: self._complete(ctx)
        )

    def _eff_send(self, ctx: Context, eff) -> None:
        cost = self.cmmu.describe_launch_cost(len(eff.operands), len(eff.blocks))
        dst, mtype, operands, blocks = eff.dst, eff.mtype, eff.operands, eff.blocks

        def do_launch() -> None:
            self.cmmu.launch(dst, mtype, operands, blocks)
            self._complete(ctx)

        self.stats.busy_cycles += cost
        self.sim.call_after(cost, do_launch)

    def _eff_storeback(self, ctx: Context, eff) -> None:
        if not ctx.is_handler or ctx.msg is None:
            raise SimulationError("Storeback outside a message handler")
        cost = self.cmmu.storeback(ctx.msg, eff.dma_addr)
        self.sim.call_after(cost, lambda: self._complete(ctx))

    def _eff_set_imask(self, ctx: Context, eff) -> None:
        self.imask = eff.masked
        unmasked_work = not eff.masked and bool(self.cmmu.in_queue)
        self.sim.call_after(1, lambda: self._complete(ctx))
        if unmasked_work and not self.in_handler:
            # the pending message traps us as soon as we unmask;
            # the current thread's resumption will be deferred
            self.sim.call_after(1, self._maybe_interrupt)

    def _eff_suspend(self, ctx: Context, eff) -> None:
        self._suspend(ctx, eff.register)

    def _eff_yield(self, ctx: Context, eff) -> None:
        if ctx.is_handler:
            raise SimulationError("Yield inside a message handler")
        self.current = None
        if self.ready is None:
            self.ready = deque()
        self.ready.append((ctx, None, False))
        self.sim.call_after(1, self._schedule_dispatch)

    def _maybe_interrupt(self) -> None:
        if self.cmmu.in_queue and not self.imask and not self.in_handler:
            self._enter_handler()

    # ------------------------------------------------------------------
    # Weak ordering: store buffer
    # ------------------------------------------------------------------
    def _buffered_store(self, ctx: Context, addr: int, value: Any) -> None:
        """Issue a store through the buffer: the context continues
        after the issue cost while the write transaction retires in
        the background. A full buffer makes the store block like a
        fence (retry when a slot frees)."""
        if len(self._store_buffer) >= self.p.store_buffer_depth:
            self._fence_waiters.append((ctx, fx.Store(addr, value)))
            return
        slot = self._store_slot_seq
        self._store_slot_seq += 1
        self._store_buffer[slot] = (addr, value)

        def on_retire() -> None:
            self.store.write(addr, value)
            del self._store_buffer[slot]
            self._drain_check()

        self.coherence.access(self.node, addr, AccessKind.WRITE, on_retire)
        self.sim.call_after(self.p.store_issue_cost, lambda: self._complete(ctx))

    def _forward_from_store_buffer(self, addr: int):
        """Store-to-load forwarding: youngest buffered value for addr
        (returns a 1-tuple or None so a buffered None forwards too)."""
        if not self._store_buffer:
            return None
        for slot in sorted(self._store_buffer, reverse=True):
            a, v = self._store_buffer[slot]
            if a == addr:
                return (v,)
        return None

    def _drain_check(self) -> None:
        """Release parked contexts as buffer slots free: a blocked
        store needs one free slot, a fence or atomic needs the buffer
        empty. Runs after every retirement; releases stay in order."""
        waiters, self._fence_waiters = self._fence_waiters, []
        for i, (ctx, redo) in enumerate(waiters):
            blocked = (
                bool(self._store_buffer)
                if redo is None or type(redo) is fx.FetchOp
                else len(self._store_buffer) >= self.p.store_buffer_depth
            )
            if blocked:
                self._fence_waiters = waiters[i:] + self._fence_waiters
                return
            if redo is None:
                self._complete(ctx)
            else:
                self._execute(ctx, redo)

    def _maybe_miss_switch(self, ctx: Context) -> None:
        """Sparcle fast context switch: on a cache miss, park the
        current context in a shadow register set and run other ready
        work while the miss is outstanding. Only taken when another
        hardware context is free and there is something to run; if
        work becomes ready later while the miss is still outstanding,
        :meth:`_late_switch_check` performs the switch then."""
        ctx.miss_pending = True
        self._late_switch_check()

    def _late_switch_check(self) -> None:
        cur = self.current
        if (
            cur is None
            or cur.is_handler
            or not cur.miss_pending
            or self.p.hw_contexts <= 1
            or len(self._stalled) >= self.p.hw_contexts - 1
            or not self.ready
        ):
            return
        self._stalled.add(cur)
        self.current = None
        self.stats.miss_switches += 1
        self.sim.call_after(self.p.miss_switch_cost, self._schedule_dispatch)

    def _suspend(self, ctx: Context, register) -> None:
        if ctx.is_handler:
            raise SimulationError("Suspend inside a message handler")
        if self.current is ctx:
            self.current = None
        resumed_flag = [False]

        def resume(value: Any = None) -> None:
            if resumed_flag[0]:
                raise SimulationError(f"{ctx!r} resumed twice")
            resumed_flag[0] = True
            self._enqueue_ready(ctx, value, True)

        register(resume)
        self._schedule_dispatch()


#: effect class -> bound handler; built once at import (satisfies the
#: exact-type semantics the old ``type(eff) is fx.X`` chain enforced)
_EFFECT_DISPATCH = {
    fx.Compute: Processor._eff_compute,
    fx.Load: Processor._eff_load,
    fx.Store: Processor._eff_store,
    # acquire/release-annotated accesses execute on the identical
    # handlers — the annotation exists only for repro.check
    fx.LoadAcquire: Processor._eff_load,
    fx.StoreRelease: Processor._eff_store,
    fx.FetchOp: Processor._eff_fetch_op,
    fx.Fence: Processor._eff_fence,
    fx.Prefetch: Processor._eff_prefetch,
    fx.Send: Processor._eff_send,
    fx.Storeback: Processor._eff_storeback,
    fx.SetIMask: Processor._eff_set_imask,
    fx.Suspend: Processor._eff_suspend,
    fx.Yield: Processor._eff_yield,
}
