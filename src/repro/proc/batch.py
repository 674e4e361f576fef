"""Batch runners for macro-effects.

A macro-effect (:class:`~repro.proc.effects.ComputeLoad` and friends)
describes a whole hot loop in one yielded object. The processor's
``_step`` routes the context to one of these batch runners, which
issues the loop's micro-operations one at a time through the *same*
machinery the effect's micro program (``eff.micro()``) uses: loads and
stores go through ``CoherenceEngine.access`` (hit fast path and MSHR
miss path alike), completions route through ``Processor._complete``
(so handler borrowing, deferred resumptions, miss context switches and
the store buffer behave identically), and each element schedules its
own completion event in exactly the order and at exactly the cycle the
micro program would. Cycle identity is by construction: the only
things removed are per-element host-side costs — the generator resume,
the effect-object allocation, the dispatch dict lookup and the
per-element completion closure.

Misses need no special casing: the faulting element's ``access``
returns False, the context may be miss-switched out, and the batch
simply does not advance until the fill (or a handler's deferred drain)
delivers the element's completion — the batch splits at the faulting
element for free.

Observability (:mod:`repro.sim.probe`): ``after_execute`` fires once
per dispatched element on both paths, with the element's effect
class. A processor with ``after_execute`` subscribers (the cycle
profiler) runs the reporting variant of each runner
(``REPORTED_CLASSES``): it reports every element it issues, right
after issuing it, as ``Processor._execute`` does. Only a
``before_execute`` subscriber, or a ``before_access`` subscriber on
the processor's coherence engine (the checkers, the ``effect`` and
``txn`` tracer), needs the effect objects themselves: such a processor
runs every macro-effect through :class:`MicroBatch`, which feeds each
element of ``eff.micro()`` through ``Processor._execute``, so those
observers see exactly the per-element stream the micro program
yields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.memory.cache import LineState
from repro.memory.coherence import AccessKind
from repro.proc import effects as fx

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.processor import Context, Processor

#: element-sequencer states (which micro-op just completed / is next)
_INIT, _PREFETCH, _PREFETCH2, _LOAD, _STORE, _COMPUTE = range(6)

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_PREFETCH_KIND = AccessKind.PREFETCH
_INVALID = LineState.INVALID
_EXCLUSIVE = LineState.EXCLUSIVE
_MODIFIED = LineState.MODIFIED


class _BatchBase:
    """Shared micro-op issue machinery. One micro-op is outstanding at
    a time, so per-op scratch state (``_addr``/``_value``) lives on the
    batch and the four completion callbacks are pre-bound once per
    batch instead of one closure per element."""

    #: effect class of the loads ``micro()`` yields (reported to
    #: ``after_execute`` by the reporting variant)
    LOAD = fx.Load

    __slots__ = (
        "proc", "ctx", "_addr", "_value",
        "_cb_plain", "_cb_read", "_cb_fwd", "_cb_write",
        "_call_after", "_cache_lines", "_cache_stats", "_line_mask",
        "_load_hit", "_store_hit", "_compute_unit", "_pstats", "_store",
    )

    def __init__(self, proc: "Processor", ctx: "Context") -> None:
        self.proc = proc
        self.ctx = ctx
        self._cb_plain = self._done_plain
        self._cb_read = self._done_read
        self._cb_fwd = self._done_fwd
        self._cb_write = self._done_write
        # Coherence hit fast path, folded into the batch: the hit test
        # and its LRU/stats bookkeeping are replicated inline from
        # Cache.lookup against prebound references, so the (dominant)
        # all-hits case skips the access()/lookup() call pair entirely.
        # Non-hits fall back to the full CoherenceEngine.access, which
        # redoes the (failing) lookup and counts the miss exactly once.
        coh = proc.coherence
        cache = coh.caches[proc.node]
        self._cache_lines = cache._lines
        self._cache_stats = cache.stats
        self._line_mask = ~(coh.line_size - 1)
        self._load_hit = coh.p.load_hit
        self._store_hit = coh.p.store_hit
        self._call_after = proc.sim.call_after
        self._compute_unit = proc.p.compute_unit
        self._pstats = proc.stats
        self._store = proc.store

    # -- completion callbacks ------------------------------------------
    # Each callback inlines Processor._complete's interruptible-point
    # checks and, when none applies, steps the batch directly — the
    # _complete -> _step detour exists to route to ``ctx.batch``, which
    # is this object. Any pending interrupt/deferral/stall falls back
    # to the real _complete so the semantics stay identical.
    def _quiet(self) -> bool:
        proc = self.proc
        ctx = self.ctx
        ctx.miss_pending = False
        return ctx.is_handler or not (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        )

    def _done_plain(self) -> None:
        ctx = self.ctx
        ctx.miss_pending = False
        proc = self.proc
        if ctx.is_handler or not (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            self.step(None)
        else:
            proc._complete(ctx)

    def _done_read(self) -> None:
        # value read at completion time, exactly like the micro path's
        # ``lambda: self._complete(ctx, self.store.read(addr))``;
        # BackingStore.read inlined (reads counter preserved)
        store = self._store
        store.reads += 1
        value = store._mem.get(self._addr, 0)
        ctx = self.ctx
        ctx.miss_pending = False
        proc = self.proc
        if ctx.is_handler or not (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            self.step(value)
        else:
            proc._complete(ctx, value)

    def _done_fwd(self) -> None:
        if self._quiet():
            self.step(self._value)
        else:
            self.proc._complete(self.ctx, self._value)

    def _done_write(self) -> None:
        proc = self.proc
        proc.store.write(self._addr, self._value)
        ctx = self.ctx
        ctx.miss_pending = False
        if ctx.is_handler or not (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            self.step(None)
        else:
            proc._complete(ctx)

    # -- micro-op issue ------------------------------------------------
    def _issue_compute(self, cycles: int) -> None:
        self._pstats.effects += 1
        c = cycles * self._compute_unit
        self._pstats.busy_cycles += c
        self._call_after(c, self._cb_plain)

    def _issue_load(self, addr: int) -> None:
        self._pstats.effects += 1
        proc = self.proc
        if proc._store_buffer:
            forwarded = proc._forward_from_store_buffer(addr)
            if forwarded is not None:
                self._value = forwarded[0]
                self._call_after(self._load_hit, self._cb_fwd)
                return
        self._addr = addr
        lines = self._cache_lines
        line = addr & self._line_mask
        st = lines.get(line)
        if st is not None and st is not _INVALID:
            lines.move_to_end(line)
            self._cache_stats.hits += 1
            self._call_after(self._load_hit, self._cb_read)
            return
        if not proc.coherence.access(proc.node, addr, _READ, self._cb_read):
            proc._maybe_miss_switch(self.ctx)

    def _issue_store(self, addr: int, value: Any) -> None:
        self._pstats.effects += 1
        proc = self.proc
        if proc.p.store_buffer_depth > 0:
            proc._buffered_store(self.ctx, addr, value)
            return
        self._addr = addr
        self._value = value
        lines = self._cache_lines
        line = addr & self._line_mask
        st = lines.get(line)
        if st is _MODIFIED:
            lines.move_to_end(line)
            self._cache_stats.hits += 1
            self._call_after(self._store_hit, self._cb_write)
            return
        if st is _EXCLUSIVE:
            # silent E->M promotion, exactly as Cache.lookup(for_write)
            lines[line] = _MODIFIED
            self._cache_stats.upgrades += 1
            lines.move_to_end(line)
            self._cache_stats.hits += 1
            self._call_after(self._store_hit, self._cb_write)
            return
        if not proc.coherence.access(proc.node, addr, _WRITE, self._cb_write):
            proc._maybe_miss_switch(self.ctx)

    def _issue_prefetch(self, addr: int) -> None:
        proc = self.proc
        proc.stats.effects += 1
        proc.coherence.access(proc.node, addr, _PREFETCH_KIND, self._cb_plain)

    # -- batch end -----------------------------------------------------
    def _resume(self, result: Any) -> None:
        """Batch done: detach and resume the program's generator with
        the batch result (same call depth the micro program's last
        ``gen.send`` would have had)."""
        ctx = self.ctx
        ctx.batch = None
        self.proc._step(ctx, result)


class ComputeLoadBatch(_BatchBase):
    """[Prefetch?] Load [Compute?] per element; collects values."""

    __slots__ = ("base", "stride", "count", "compute", "per_line",
                 "values", "i", "state")

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        super().__init__(proc, ctx)
        self.base = eff.base
        self.stride = eff.stride
        self.count = eff.count
        self.compute = eff.compute
        self.per_line = eff.prefetch_line // eff.stride if eff.prefetch_line else 0
        self.values: list[Any] = []
        self.i = 0
        self.state = _INIT
        # collapse the _done_read -> step element advance into one
        # callback (the dominant completion in gather loops)
        self._cb_read = self._loaded

    def _loaded(self) -> None:
        store = self._store
        store.reads += 1
        value = store._mem.get(self._addr, 0)
        ctx = self.ctx
        ctx.miss_pending = False
        proc = self.proc
        if not ctx.is_handler and (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            proc._complete(ctx, value)
            return
        self.values.append(value)
        if self.compute:
            self.state = _COMPUTE
            self._issue_compute(self.compute)
            return
        self.i += 1
        self._next()

    def step(self, value: Any) -> None:
        st = self.state
        if st == _LOAD:
            self.values.append(value)
            if self.compute:
                self.state = _COMPUTE
                self._issue_compute(self.compute)
                return
            self.i += 1
        elif st == _COMPUTE:
            self.i += 1
        elif st == _PREFETCH:
            self._load()
            return
        self._next()

    def _next(self) -> None:
        i = self.i
        if i >= self.count:
            self._resume(self.values)
            return
        pl = self.per_line
        if pl and i % pl == 0 and (i + pl) < self.count:
            self.state = _PREFETCH
            self._issue_prefetch(self.base + (i + pl) * self.stride)
            return
        self._load()

    def _load(self) -> None:
        self.state = _LOAD
        self._issue_load(self.base + self.i * self.stride)


class LoadComputeStoreBatch(_BatchBase):
    """The §4.4 copy loops: per element [Prefetch src+dst at line
    boundaries] Load src, Store dst, [Compute]."""

    __slots__ = ("src", "dst", "stride", "count", "compute",
                 "prefetch_line", "nbytes", "i", "state")

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        super().__init__(proc, ctx)
        self.src = eff.src
        self.dst = eff.dst
        self.stride = eff.stride
        self.count = eff.count
        self.compute = eff.compute
        self.prefetch_line = eff.prefetch_line
        self.nbytes = eff.count * eff.stride
        self.i = 0
        self.state = _INIT

    def step(self, value: Any) -> None:
        st = self.state
        if st == _LOAD:
            self.state = _STORE
            self._issue_store(self.dst + self.i * self.stride, value)
            return
        if st == _PREFETCH:
            self.state = _PREFETCH2
            self._issue_prefetch(
                self.dst + self.i * self.stride + self.prefetch_line
            )
            return
        if st == _PREFETCH2:
            self._load()
            return
        if st == _STORE:
            if self.compute:
                self.state = _COMPUTE
                self._issue_compute(self.compute)
                return
            self.i += 1
        elif st == _COMPUTE:
            self.i += 1
        self._next()

    def _next(self) -> None:
        i = self.i
        if i >= self.count:
            self._resume(None)
            return
        pl = self.prefetch_line
        off = i * self.stride
        if pl and off % pl == 0 and off + pl < self.nbytes:
            self.state = _PREFETCH
            self._issue_prefetch(self.src + off + pl)
            return
        self._load()

    def _load(self) -> None:
        self.state = _LOAD
        self._issue_load(self.src + self.i * self.stride)


class StoreRunBatch(_BatchBase):
    """Store values[i] to base + i*stride, in order."""

    __slots__ = ("base", "stride", "values", "i")

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        super().__init__(proc, ctx)
        self.base = eff.base
        self.stride = eff.stride
        self.values = eff.values
        self.i = -1

    def step(self, value: Any) -> None:
        self.i += 1
        i = self.i
        vals = self.values
        if i >= len(vals):
            self._resume(None)
            return
        self._issue_store(self.base + i * self.stride, vals[i])


class PollBatch(_BatchBase):
    """Probe (one LoadAcquire per address) until ``ready(*values)``
    holds (resumes True), with Compute(quantum) between probes, or
    until ``rounds`` probes are made (resumes False).

    A one-address poll (a flag spin) runs each round in its two
    completion callbacks, ``_spin_loaded`` and ``_spin_backed_off``,
    instead of through step(): spins are the bulk of the wait rounds
    (113k in a two-episode 256-node SM barrier), and the generic round
    made each one take about 20% more host time. The reporting variant
    (``_ReportedPollBatch``) runs every round through step().
    """

    __slots__ = ("quantum", "left", "ready", "addrs", "n", "values", "k",
                 "_line")
    LOAD = fx.LoadAcquire

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        super().__init__(proc, ctx)
        self.quantum = eff.quantum
        self.left = eff.rounds  # probes still to start; None: no limit
        self.ready = eff.ready
        self.addrs = eff.addrs
        self.n = len(eff.addrs)
        self.values = [None] * self.n
        #: loads of the probe in flight issued so far; -1 before a
        #: probe (at the start, or while the compute between two probes
        #: runs)
        self.k = -1
        if self.n == 1:
            self._addr = eff.addrs[0]
            self._line = self._addr & self._line_mask
            self._cb_read = self._spin_loaded
            self._cb_plain = self._spin_backed_off

    def step(self, value: Any) -> None:
        k = self.k
        if k < 0:
            left = self.left
            if left is not None:
                if not left:
                    self._resume(False)
                    return
                self.left = left - 1
            k = 0
        else:
            self.values[k - 1] = value
        if k < self.n:
            self.k = k + 1
            self._issue_load(self.addrs[k])
            return
        # the probe's last load completed: where the micro program's
        # generator resumes and tests ready
        if self.ready(*self.values):
            self._resume(True)
            return
        if self.left == 0:
            self._resume(False)
            return
        self.k = -1
        self._issue_compute(self.quantum)

    # -- a flag spin's round, inlined ----------------------------------
    # Each callback falls back to _complete (which re-enters step())
    # at any interruptible point, exactly like _done_read/_done_plain.
    def _spin_loaded(self) -> None:
        """The probe's load completed: test ready, then back off."""
        store = self._store
        store.reads += 1
        value = store._mem.get(self._addr, 0)
        ctx = self.ctx
        ctx.miss_pending = False
        proc = self.proc
        if not ctx.is_handler and (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            proc._complete(ctx, value)
            return
        if self.ready(value):
            self._resume(True)
            return
        if self.left == 0:
            self._resume(False)
            return
        # _issue_compute(quantum), inlined
        self.k = -1
        pstats = self._pstats
        pstats.effects += 1
        c = self.quantum * self._compute_unit
        pstats.busy_cycles += c
        self._call_after(c, self._cb_plain)

    def _spin_backed_off(self) -> None:
        """The backoff completed: issue the next probe's load
        (_issue_load for the fixed address, inlined)."""
        ctx = self.ctx
        ctx.miss_pending = False
        proc = self.proc
        if not ctx.is_handler and (
            proc.in_handler
            or (proc.cmmu.in_queue and not proc.imask)
            or ctx in proc._stalled
        ):
            proc._complete(ctx)
            return
        if self.left is not None:
            self.left -= 1  # a backoff runs only while probes are left
        self.k = 1
        self._pstats.effects += 1
        if proc._store_buffer:
            forwarded = proc._forward_from_store_buffer(self._addr)
            if forwarded is not None:
                self._value = forwarded[0]
                self._call_after(self._load_hit, self._cb_fwd)
                return
        lines = self._cache_lines
        line = self._line
        st = lines.get(line)
        if st is not None and st is not _INVALID:
            lines.move_to_end(line)
            self._cache_stats.hits += 1
            self._call_after(self._load_hit, self._cb_read)
            return
        if not proc.coherence.access(proc.node, self._addr, _READ, self._cb_read):
            proc._maybe_miss_switch(ctx)


class _Reported:
    """Mixin for a runner on a processor with ``after_execute``
    subscribers: each element is reported, with its effect class, right
    after it is issued (where ``Processor._execute`` fires the probe).
    Unobserved processors run the plain runners, which pay nothing."""

    __slots__ = ()

    def _report(self, cls) -> None:
        ctx = self.ctx
        for fn in self.proc.after_execute:
            fn(ctx, cls)

    def _issue_compute(self, cycles: int) -> None:
        super()._issue_compute(cycles)
        self._report(fx.Compute)

    def _issue_load(self, addr: int) -> None:
        super()._issue_load(addr)
        self._report(self.LOAD)

    def _issue_store(self, addr: int, value: Any) -> None:
        super()._issue_store(addr, value)
        self._report(fx.Store)

    def _issue_prefetch(self, addr: int) -> None:
        super()._issue_prefetch(addr)
        self._report(fx.Prefetch)


class _ReportedPollBatch(_Reported, PollBatch):
    """A reporting poll runs every round through ``step()``: the
    inlined one-address round issues its elements itself."""

    __slots__ = ()

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        super().__init__(proc, ctx, eff)
        self._cb_read = self._done_read
        self._cb_plain = self._done_plain


class MicroBatch:
    """Runs ``eff.micro()``, sending each element through
    ``Processor._execute`` exactly as a program yielding it would."""

    __slots__ = ("proc", "ctx", "gen")

    def __init__(self, proc: "Processor", ctx: "Context", eff) -> None:
        self.proc = proc
        self.ctx = ctx
        self.gen = eff.micro()

    def step(self, value: Any) -> None:
        try:
            eff = self.gen.send(value)
        except StopIteration as stop:
            ctx = self.ctx
            ctx.batch = None
            self.proc._step(ctx, stop.value)
            return
        proc = self.proc
        proc.stats.effects += 1
        proc._execute(self.ctx, eff)


#: macro effect class -> batch runner
BATCH_CLASSES = {
    fx.ComputeLoad: ComputeLoadBatch,
    fx.LoadComputeStore: LoadComputeStoreBatch,
    fx.StoreRun: StoreRunBatch,
    fx.Poll: PollBatch,
}


def _reported(runner: type) -> type:
    return type(f"_Reported{runner.__name__}", (_Reported, runner), {"__slots__": ()})


#: macro effect class -> batch runner reporting to ``after_execute``
REPORTED_CLASSES = {
    fx.ComputeLoad: _reported(ComputeLoadBatch),
    fx.LoadComputeStore: _reported(LoadComputeStoreBatch),
    fx.StoreRun: _reported(StoreRunBatch),
    fx.Poll: _ReportedPollBatch,
}
