"""Hybrid (shared-memory + message-passing) scheduler.

The paper's key runtime improvement (§4.5): local task-queue
operations need no synchronization at all because *only the owning
processor ever touches its queue* — all remote access (work stealing,
thread migration, remote invocation) arrives as messages whose
handlers the owner executes itself. A steal is one request message
and one reply message carrying the migrated task; remote thread
invocation is a single message that the receiving handler enqueues
atomically (synchronization and data bundled, §2.2).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Generator

from repro.proc.effects import Compute, Poll, Yield as YieldEffect
from repro.runtime.scheduler.base import NodeScheduler
from repro.runtime.task import Task, TaskState

#: message type tags
MSG_STEAL_REQ = "rt.steal_req"
MSG_STEAL_REPLY = "rt.steal_reply"
MSG_TASK = "rt.task"

_req_ids = itertools.count()


class HybridScheduler(NodeScheduler):
    """Owner-only local deque + message-based stealing."""

    def __init__(self, rt, node: int) -> None:
        super().__init__(rt, node)
        self._deque: deque[Task] = deque()
        # the idle backoff polls the deque itself: no shared-memory word
        self.poll_ready = self._deque.__len__
        #: outstanding steal requests: req_id -> reply box (the thief
        #: spins on the box so it never has two steals in flight)
        self._pending_steals: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Queue mechanism: plain local operations, no locks
    # ------------------------------------------------------------------
    def push(self, task: Task) -> Generator:
        yield Compute(self.rt.p.local_push_cost)
        self._deque.append(task)

    def pop_local(self) -> Generator:
        yield Compute(self.rt.p.local_pop_cost)
        while self._deque:
            task = self._deque.pop()  # newest
            if task.claim():
                return task
        return None

    def pop_oldest_nowait(self) -> Task | None:
        """Handler-side pop for serving a steal request (skips pinned
        tasks: invoked-to-this-node threads may not migrate away)."""
        for task in self._deque:
            if not task.pinned and task.state is TaskState.QUEUED and task.claim():
                self._deque.remove(task)
                return task
        return None

    def queue_length(self) -> int:
        return sum(1 for t in self._deque if t.state is TaskState.QUEUED)

    # ------------------------------------------------------------------
    # Stealing: request/reply message exchange
    # ------------------------------------------------------------------
    def steal_from(self, victim: int) -> Generator:
        """One request/reply exchange. The thief busy-waits for the
        reply (it has nothing else to run — and this bounds each node
        to a single outstanding steal, so idle processors cannot flood
        busy ones with request interrupts)."""
        req_id = next(_req_ids)
        box: dict[str, int] = {}
        self._pending_steals[req_id] = box
        yield from self.rt.net.send(self.node, victim, MSG_STEAL_REQ, (self.node, req_id))
        if self.rt.reliable is not None:
            while "tid" not in box:
                yield Compute(4)
                # in reliable mode the pipeline must rotate: a dropped
                # request is re-sent by a retransmit *thread* on this
                # very node, and an unbroken spin would starve it
                yield YieldEffect()
        elif "tid" not in box:
            # poll every 4 cycles; the reply handler interrupts us
            yield Poll(4, None, lambda: "tid" in box)
        del self._pending_steals[req_id]
        tid = box["tid"]
        if tid == 0:
            return None
        task = self.rt.tasks[tid]
        # the task itself migrated inside the reply message; it is
        # already RUNNING-claimed by the victim's handler
        return task

    def remote_push(self, dest: int, task: Task, src: int | None = None) -> Generator:
        """One message bundles synchronization and data (§2.2/§4.3):
        thread pointer and arguments marshalled into the descriptor's
        operand words, unpacked and enqueued atomically by the
        receiver's handler."""
        yield Compute(self.rt.p.remote_invoke_marshal)
        yield from self.rt.net.send(src, dest, MSG_TASK, (task.tid, 0, 0, 0))

    # ------------------------------------------------------------------
    # Handlers (registered by the Runtime on this scheduler's node)
    # ------------------------------------------------------------------
    def handle_steal_req(self, msg) -> Generator:
        thief, req_id = msg.operands
        if not self._deque:
            # fast path: empty queue, cheap negative reply
            yield Compute(2)
            yield from self.rt.net.send(self.node, thief, MSG_STEAL_REPLY, (req_id, 0))
            return
        yield Compute(self.rt.p.steal_handler_cost)
        task = self.pop_oldest_nowait()
        tid = task.tid if task is not None else 0
        yield from self.rt.net.send(self.node, thief, MSG_STEAL_REPLY, (req_id, tid))

    def handle_steal_reply(self, msg) -> Generator:
        req_id, tid = msg.operands
        yield Compute(self.rt.p.reply_handler_cost)
        self._pending_steals[req_id]["tid"] = tid

    def handle_task(self, msg) -> Generator:
        """Remote thread invocation arrival: unpack and enqueue
        atomically (we are the only toucher of our queue)."""
        tid = msg.operands[0]
        yield Compute(self.rt.p.enqueue_handler_cost)
        task = self.rt.tasks[tid]
        self._deque.append(task)
        self.rt.machine.processor(self.node).kick()
