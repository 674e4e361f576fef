"""The effect "ISA" of simulated programs.

Simulated threads and message handlers are Python generators that
``yield`` effect objects; the :class:`~repro.proc.processor.Processor`
executes each effect, charges its cycle cost against the simulated
clock, and resumes the generator with the effect's result::

    def worker(a, b):
        x = yield Load(a)          # coherent shared-memory read
        yield Compute(10)          # 10 cycles of local work
        yield Store(b, x + 1)      # coherent shared-memory write
        return x

This mirrors the paper's machine interface: loads/stores/prefetches
are single instructions backed by coherence hardware; Send is the
CMMU's describe/launch sequence; Storeback drives the receive-side
DMA.

Macro-effects
-------------
Hot inner loops (the jacobi halo reads, the memcpy doubleword loop,
the accum consume loop, flag spins, the schedulers' idle polls) spend
most of their host time resuming the generator once per element. The
four macro-effects (:class:`ComputeLoad`, :class:`LoadComputeStore`,
:class:`StoreRun`, :class:`Poll`) describe the whole loop in one
yielded object. Each one's ``micro()`` generator *is* its meaning: the
per-element program it stands for. The processor's batch runner
(:mod:`repro.proc.batch`) drives those micro-operations itself — same
events, same cycle accounting, same interrupt points, one generator
resume for the whole loop — and an observed processor runs
``micro()`` element by element. :func:`expand` turns a whole program
into its micro form. All effect classes are slotted: effect objects
are the highest-churn allocations in a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

from repro.cmmu.message import BlockRef


@dataclass(slots=True)
class Compute:
    """Occupy the processor for ``cycles`` of local work."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative compute {self.cycles}")


@dataclass(slots=True)
class Load:
    """Coherent shared-memory read; resumes with the loaded value."""

    addr: int


@dataclass(slots=True)
class Store:
    """Coherent shared-memory write of ``value`` to ``addr``."""

    addr: int
    value: Any


@dataclass(slots=True)
class LoadAcquire(Load):
    """A :class:`Load` annotated with acquire semantics for the
    dynamic checkers (``repro.check``): reading this word may publish
    another thread's prior writes (a lock word, a ready flag). The
    processor executes it exactly like a plain Load — the annotation
    carries zero timing meaning — but the happens-before race detector
    joins the releaser's clock instead of reporting a data race on the
    synchronization word itself."""


@dataclass(slots=True)
class StoreRelease(Store):
    """A :class:`Store` annotated with release semantics for the
    dynamic checkers: writing this word publishes every prior write of
    this thread to whoever load-acquires it (a lock release, a flag
    set). Timing-identical to a plain Store."""


@dataclass(slots=True)
class Prefetch:
    """Non-binding read-shared prefetch; resumes after the issue cost
    while the fill proceeds in the background."""

    addr: int


@dataclass(slots=True)
class FetchOp:
    """Atomic read-modify-write (``new = fn(old)``); resumes with the
    *old* value. Used for test-and-set locks and fetch-and-increment."""

    addr: int
    fn: Callable[[Any], Any]


@dataclass(slots=True)
class Send:
    """Describe and launch a message (paper §3). Blocking only for the
    describe/launch instruction sequence; delivery is asynchronous."""

    dst: int
    mtype: str
    operands: tuple[Any, ...] = ()
    blocks: list[BlockRef] = field(default_factory=list)


@dataclass(slots=True)
class Storeback:
    """Receive-side DMA scatter of the *current handler's* message
    block data to ``dma_addr``. Only legal inside a message handler."""

    dma_addr: int


@dataclass(slots=True)
class SetIMask:
    """Mask (True) or unmask (False) message interrupts."""

    masked: bool


@dataclass(slots=True)
class Fence:
    """Drain the store buffer (weak ordering's synchronization point).

    A no-op (1 cycle) when the processor runs sequentially consistent
    (``store_buffer_depth == 0``, the default) or the buffer is empty.
    """


@dataclass(slots=True)
class Suspend:
    """Block the current thread off the processor.

    ``register`` is called once with a ``resume(value)`` callable; some
    other agent (a future resolution, a reply handler) later invokes it
    to put the thread back on its processor's ready queue. Resumes with
    ``value``. Illegal in message handlers (they must run to
    completion).
    """

    register: Callable[[Callable[[Any], None]], None]


@dataclass(slots=True)
class Yield:
    """Politely go to the back of the ready queue (cooperative
    rescheduling point for long-running loops)."""


# ----------------------------------------------------------------------
# Macro-effects: one yield describes a whole hot loop, and micro() is
# that loop. The processor's batch runner (repro.proc.batch) issues the
# per-element operations through the same coherence/completion
# machinery micro() would use, so simulated timing, interrupt points
# and stats are identical element for element — only the per-element
# generator resume, effect allocation, and dispatch lookup disappear.
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ComputeLoad:
    """Batched ``[Prefetch?] Load [Compute?]`` loop over a strided
    vector; resumes with the list of loaded values.

    ``prefetch_line = 0`` disables prefetching; ``compute = 0`` skips
    the per-element compute charge.
    """

    base: int
    count: int
    stride: int = 8
    compute: int = 0
    prefetch_line: int = 0

    def __post_init__(self) -> None:
        _check_batch(self.count, self.stride, self.compute, self.prefetch_line)

    def micro(self) -> Generator:
        base, count, stride, compute = self.base, self.count, self.stride, self.compute
        per_line = self.prefetch_line // stride
        values = []
        for i in range(count):
            if per_line and i % per_line == 0 and i + per_line < count:
                yield Prefetch(base + (i + per_line) * stride)
            values.append((yield Load(base + i * stride)))
            if compute:
                yield Compute(compute)
        return values


@dataclass(slots=True)
class LoadComputeStore:
    """Batched strided copy loop: ``Load src, Store dst, Compute``
    per element, optionally prefetching one ``prefetch_line`` ahead on
    both streams at line boundaries (the §4.4 copy loops). Resumes
    with None."""

    src: int
    dst: int
    count: int
    stride: int = 8
    compute: int = 0
    prefetch_line: int = 0

    def __post_init__(self) -> None:
        _check_batch(self.count, self.stride, self.compute, self.prefetch_line)

    def micro(self) -> Generator:
        src, dst, pl, compute = self.src, self.dst, self.prefetch_line, self.compute
        nbytes = self.count * self.stride
        for off in range(0, nbytes, self.stride):
            if pl and off % pl == 0 and off + pl < nbytes:
                yield Prefetch(src + off + pl)
                yield Prefetch(dst + off + pl)
            v = yield Load(src + off)
            yield Store(dst + off, v)
            if compute:
                yield Compute(compute)


@dataclass(slots=True)
class StoreRun:
    """Batched strided store of ``values[i]`` to ``base + i * stride``
    (an edge/buffer publish loop). Resumes with None."""

    base: int
    values: Sequence[Any]
    stride: int = 8

    def __post_init__(self) -> None:
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")

    def micro(self) -> Generator:
        for i, v in enumerate(self.values):
            yield Store(self.base + i * self.stride, v)


@dataclass(slots=True)
class Poll:
    """Batched wait, probe first. A probe is one LoadAcquire per
    address in ``addrs``; while ``ready(*values)`` is false for its
    loaded values and fewer than ``rounds`` probes were made (None: no
    limit), ``Compute(quantum)`` and probe again. Resumes with True
    once ``ready`` holds, with False when the rounds run out. A flag
    spin probes one address:
    ``Poll(backoff, None, partial(operator.le, threshold), (addr,))``
    waits until ``addr`` holds at least ``threshold``.

    ``ready`` runs where ``micro()`` resumes after a probe's last load,
    so it sees whatever a message handler that borrowed the pipeline
    meanwhile changed (a steal reply, an invoked task). It may read
    only the loaded values and state that this node's handlers change:
    then only a write to a polled word or a handler run on this node
    can change its answer.
    """

    quantum: int
    rounds: int | None
    ready: Callable[..., Any]
    addrs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.quantum < 0:
            raise ValueError(f"negative poll quantum {self.quantum}")
        if self.rounds is not None and self.rounds < 0:
            raise ValueError(f"negative poll rounds {self.rounds}")

    def micro(self) -> Generator:
        # one LoadAcquire per address every probe, a Compute between probes
        compute = Compute(self.quantum)
        loads = [LoadAcquire(a) for a in self.addrs]
        n = 0
        while self.rounds is None or n < self.rounds:
            if n:
                yield compute
            values = []
            for load in loads:
                values.append((yield load))
            if self.ready(*values):
                return True
            n += 1
        return False


def _check_batch(count: int, stride: int, compute: int, prefetch_line: int) -> None:
    if count < 0:
        raise ValueError(f"negative batch count {count}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if compute < 0:
        raise ValueError(f"negative compute {compute}")
    if prefetch_line < 0:
        raise ValueError(f"negative prefetch_line {prefetch_line}")
    if prefetch_line and prefetch_line % stride:
        raise ValueError(
            f"prefetch_line {prefetch_line} is not a multiple of stride {stride}"
        )


MACRO_EFFECTS = (ComputeLoad, LoadComputeStore, StoreRun, Poll)


def expand(gen: Generator) -> Generator:
    """Run program ``gen`` with every macro-effect it yields replaced by
    that effect's micro program: ``run_thread(expand(prog))`` simulates
    exactly what ``run_thread(prog)`` does, one element at a time."""
    value = None
    while True:
        try:
            eff = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if eff.__class__ in MACRO_EFFECTS:
            value = yield from eff.micro()
        else:
            value = yield eff

Effect = (
    Compute | Load | Store | LoadAcquire | StoreRelease | Prefetch | FetchOp
    | Send | Storeback | SetIMask | Suspend | Yield | Fence
    | ComputeLoad | LoadComputeStore | StoreRun | Poll
)
