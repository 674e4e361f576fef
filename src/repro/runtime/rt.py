"""The Alewife runtime system.

Layers lazy-task-creation scheduling, futures, and remote thread
invocation on top of the machine. Two interchangeable scheduler
mechanisms implement the paper's §4.5 comparison:

* ``scheduler="sm"`` — every task queue in shared memory, guarded by
  spin locks (the original, shared-memory-only runtime).
* ``scheduler="hybrid"`` — owner-only queues with message-based
  stealing and migration (the integrated runtime).

Typical use::

    m = Machine(MachineConfig(n_nodes=64))
    rt = Runtime(m, scheduler="hybrid")

    def tree(rt, node, depth):
        if depth == 0:
            yield Compute(100)
            return 1
        fut = yield from rt.fork(node, lambda rt, nd: tree(rt, nd, depth - 1))
        right = yield from tree(rt, node, depth - 1)
        left = yield from rt.join(node, fut)
        return left + right

    result, cycles = rt.run_to_completion(0, lambda rt, nd: tree(rt, nd, 10))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.check import hooks
from repro.machine.machine import Machine
from repro.runtime.reliable import ReliableLayer
from repro.runtime.scheduler.base import NodeScheduler
from repro.runtime.scheduler.hybrid import (
    MSG_STEAL_REPLY,
    MSG_STEAL_REQ,
    MSG_TASK,
    HybridScheduler,
)
from repro.runtime.scheduler.shmem import ShmemScheduler
from repro.runtime.task import Task, TaskFactory, TaskState
from repro.runtime.sync import Future
from repro.sim.engine import SimulationError


@dataclass
class RuntimeParams:
    """Software cost constants for the runtime system (cycles)."""

    #: hybrid scheduler: unsynchronized local deque push / pop
    #: (descriptor marshalling; calibrated against Fig. 9 — see
    #: EXPERIMENTS.md)
    local_push_cost: int = 20
    local_pop_cost: int = 14
    #: hybrid handlers: serve a steal request / process its reply
    steal_handler_cost: int = 20
    reply_handler_cost: int = 10
    #: hybrid handler: unpack + enqueue a migrated/invoked task
    enqueue_handler_cost: int = 14
    #: idle-loop backoff after a failed steal (doubles up to the cap)
    steal_backoff: int = 50
    steal_backoff_max: int = 800
    #: local-queue poll cadence inside the backoff loop
    poll_quantum: int = 24
    #: invoking side: marshalling thread arguments into the descriptor
    remote_invoke_marshal: int = 8
    #: capacity of each shared-memory queue (power of two)
    sm_queue_capacity: int = 4096
    #: task-descriptor size in the shared-memory queue (words)
    sm_entry_words: int = 4
    #: tasks taken per successful shared-memory steal (steal-half,
    #: capped) — amortizes the locked queue visit over migrations
    sm_steal_batch: int = 2

    def __post_init__(self) -> None:
        # a zero quantum polls without the clock advancing and a zero
        # backoff doubles to zero forever; a cap below the initial
        # backoff would shrink it
        if self.poll_quantum < 1:
            raise ValueError(f"poll_quantum must be >= 1, got {self.poll_quantum}")
        if self.steal_backoff < 1:
            raise ValueError(f"steal_backoff must be >= 1, got {self.steal_backoff}")
        if self.steal_backoff_max < self.steal_backoff:
            raise ValueError(
                f"steal_backoff_max ({self.steal_backoff_max}) is below "
                f"steal_backoff ({self.steal_backoff})"
            )


class Runtime:
    """Machine-wide runtime: one scheduler per node plus the task table."""

    def __init__(
        self,
        machine: Machine,
        scheduler: str = "hybrid",
        params: RuntimeParams | None = None,
        seed: int = 0,
        reliable: ReliableLayer | None = None,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.p = params or RuntimeParams()
        self.seed = seed
        self.kind = scheduler
        #: with a ReliableLayer, the hybrid scheduler's messages (steal
        #: request/reply, task migration, remote invocation) survive
        #: packet loss; the shared-memory scheduler needs no such layer
        #: (coherence traffic is hardware-reliable)
        self.reliable = reliable
        #: the transport every scheduler message goes through (a lost
        #: steal reply would otherwise spin the thief forever)
        self.net = reliable or machine
        self.tasks: dict[int, Task] = {}
        self._task_ids = itertools.count(1)
        self.done = False
        if scheduler == "hybrid":
            sched_cls: type[NodeScheduler] = HybridScheduler
        elif scheduler == "sm":
            sched_cls = ShmemScheduler
        else:
            raise ValueError(f"unknown scheduler kind {scheduler!r} (use 'hybrid' or 'sm')")
        self.schedulers: list[NodeScheduler] = [
            sched_cls(self, node) for node in range(machine.n_nodes)
        ]
        machine.runtime = self  # let observers reach the schedulers
        for node, sched in enumerate(self.schedulers):
            proc = machine.processor(node)
            proc.idle_hook = sched.idle_step
            if isinstance(sched, HybridScheduler):
                handlers = (
                    (MSG_STEAL_REQ, sched.handle_steal_req),
                    (MSG_STEAL_REPLY, sched.handle_steal_reply),
                    (MSG_TASK, sched.handle_task),
                )
                for mtype, fn in handlers:
                    self.net.register_handler(node, mtype, fn)
            proc.kick()  # start the idle loop (work stealing) everywhere

    # ------------------------------------------------------------------
    # Task creation and joining (call via ``yield from`` inside threads)
    # ------------------------------------------------------------------
    def make_task(
        self, factory: TaskFactory, home: int, label: str = "", pinned: bool = False
    ) -> Task:
        task = Task(factory=factory, home=home, tid=next(self._task_ids),
                    label=label, pinned=pinned)
        self.tasks[task.tid] = task
        if hooks.SINKS:
            # publish the forker's clock; Task.body observes it wherever
            # the task eventually runs (stolen, migrated, or inlined)
            hooks.signal(("task", task.tid))
        return task

    def fork(self, node: int, factory: TaskFactory, label: str = "") -> Generator:
        """Lazily create a task on ``node``'s queue; returns its Future.

        ``fut = yield from rt.fork(node, factory)``
        """
        task = self.make_task(factory, home=node, label=label)
        yield from self.schedulers[node].push(task)
        return task.future

    def join(self, node: int, fut: Future) -> Generator:
        """Help-first join: while the future is unresolved, run tasks
        from the local queue inline (the lazy-task-creation fast path);
        suspend only when the queue is dry (the task was stolen).

        ``value = yield from rt.join(node, fut)``
        """
        while not fut.resolved:
            task = yield from self.schedulers[node].pop_local()
            if task is None:
                break
            yield from task.body(self, node)
        value = yield from fut.wait()
        return value

    def spawn_to(
        self,
        dest: int,
        factory: TaskFactory,
        label: str = "",
        pinned: bool = True,
        src: int | None = None,
    ) -> Generator:
        """Remote thread invocation (§4.3): place a new task on
        ``dest``'s queue using the scheduler's mechanism (shared-memory
        queue writes vs a single message). Returns the task's Future;
        the *invoker* is free as soon as this generator returns. The
        task is pinned to ``dest`` by default (it is an invocation of a
        thread *on that processor*, not load-balancing fodder).

        In reliable mode, ``src`` (the invoking node) is required: the
        retransmit timer of the invocation message must be bound to the
        invoker's processor.
        """
        if self.reliable is not None and src is None:
            raise SimulationError("reliable spawn_to needs src (the invoking node)")
        task = self.make_task(factory, home=dest, label=label, pinned=pinned)
        # The mechanism is uniform across nodes; for "sm" the shared-
        # memory queue operations still execute on the caller's CPU.
        yield from self.schedulers[dest].remote_push(dest, task, src=src)
        return task.future

    # ------------------------------------------------------------------
    # Direct thread execution (bypasses task queues)
    # ------------------------------------------------------------------
    def spawn_root(
        self,
        node: int,
        factory: TaskFactory,
        label: str = "root",
        on_finish: Callable[[Any], None] | None = None,
    ) -> Future:
        """Start a thread immediately on ``node`` (driver-level entry
        point, not a measured runtime operation)."""
        task = self.make_task(factory, home=node, label=label)
        task.claim()
        fut = task.future
        if on_finish is not None:
            fut.add_waiter(on_finish)
        self.machine.processor(node).run_thread(task.body(self, node), label=label)
        return fut

    def start_task(self, node: int, task: Task) -> None:
        """Turn a (claimed or queued) task into a running thread."""
        if task.state is TaskState.QUEUED:
            task.claim()
        sched = self.schedulers[node]
        sched.stats_tasks_run += 1
        self.machine.processor(node).run_thread(
            task.body(self, node), label=task.label or f"task{task.tid}"
        )

    # ------------------------------------------------------------------
    # Whole-program driving
    # ------------------------------------------------------------------
    def run_to_completion(
        self,
        node: int,
        factory: TaskFactory,
        label: str = "root",
        max_events: int | None = 100_000_000,
    ) -> tuple[Any, int]:
        """Run ``factory`` as the root thread; returns (result, cycles).

        Sets ``done`` when the root future resolves so idle processors
        stop probing and the event queue drains.
        """
        t0 = self.sim.now
        box: dict[str, Any] = {}

        def finished(value: Any) -> None:
            box["result"] = value
            box["cycles"] = self.sim.now - t0
            self.done = True

        self.spawn_root(node, factory, label=label, on_finish=finished)
        self.machine.run(max_events=max_events)
        if "result" not in box:
            raise SimulationError(
                "root thread never completed (deadlock or starvation?)"
            )
        return box["result"], box["cycles"]

    # ------------------------------------------------------------------
    def total_steals(self) -> tuple[int, int]:
        """(attempted, won) across all nodes."""
        att = sum(s.stats_steals_attempted for s in self.schedulers)
        won = sum(s.stats_steals_won for s in self.schedulers)
        return att, won
