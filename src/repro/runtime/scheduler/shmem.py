"""Shared-memory-only scheduler (the paper's original runtime).

Every task queue lives in shared memory and is protected by a
spin lock, because any processor may push to, pop from, or steal from
any queue using ordinary loads and stores. This is the §4.5 baseline:
even purely local pushes and pops pay lock and coherence traffic, and
once a thief has probed a queue its cache lines have migrated away,
so the owner's next operation takes remote misses to get them back.

Queue memory layout (all homed at the owning node; the lock on its
own cache line, head and tail packed together on another — both are
written only under the lock):

    lock        -- test-and-set word
    head, tail  -- steal end / push-pop end indices (one line)
    entries[i]  -- multi-word task descriptors (``entry_words`` each)
"""

from __future__ import annotations

import operator
from typing import Generator

from repro.proc.effects import Load, LoadAcquire, Store, StoreRelease
from repro.runtime.scheduler.base import NodeScheduler
from repro.runtime.sync import SpinLock
from repro.runtime.task import Task


class SMQueue:
    """The shared-memory deque of one node.

    Queue entries are multi-word task descriptors (code pointer,
    argument words, future pointer — ``entry_words`` of them), so a
    push writes and a pop reads several shared-memory words beyond the
    control words. This is what makes the shared-memory remote thread
    invocation cost its several-hundred cycles in §4.3.
    """

    def __init__(
        self, machine, node: int, capacity: int = 4096, entry_words: int = 4
    ) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        if entry_words < 1:
            raise ValueError(f"entry_words must be >= 1, got {entry_words}")
        self.node = node
        self.capacity = capacity
        self.entry_words = entry_words
        self.lock = SpinLock(machine.alloc(node, 8))
        # head and tail share one cache line (they are only written
        # under the lock, so packing them halves the control-word
        # misses after the line migrates to a thief)
        control = machine.alloc(node, 16)
        self.head_addr = control
        self.tail_addr = control + 8
        self.entries = machine.alloc(node, 8 * entry_words * capacity)

    def entry_addr(self, idx: int, word: int = 0) -> int:
        return self.entries + ((idx & (self.capacity - 1)) * self.entry_words + word) * 8

    # All operations hold the lock; every access below is a simulated
    # shared-memory reference paying full coherence costs.
    def push(self, tid: int) -> Generator:
        yield from self.lock.acquire()
        tail = yield LoadAcquire(self.tail_addr)
        yield Store(self.entry_addr(tail, 0), tid)
        for w in range(1, self.entry_words):
            yield Store(self.entry_addr(tail, w), 0)  # args/future words
        yield StoreRelease(self.tail_addr, tail + 1)
        yield from self.lock.release()

    def _read_entry(self, idx: int) -> Generator:
        tid = yield Load(self.entry_addr(idx, 0))
        for w in range(1, self.entry_words):
            yield Load(self.entry_addr(idx, w))
        return tid

    def pop_newest(self) -> Generator:
        # unlocked emptiness probe (idle loops poll their own queue
        # constantly; don't take the lock just to find it empty)
        head = yield LoadAcquire(self.head_addr)
        tail = yield LoadAcquire(self.tail_addr)
        if head == tail:
            return 0
        yield from self.lock.acquire()
        head = yield LoadAcquire(self.head_addr)
        tail = yield LoadAcquire(self.tail_addr)
        if head == tail:
            yield from self.lock.release()
            return 0
        tid = yield from self._read_entry(tail - 1)
        yield StoreRelease(self.tail_addr, tail - 1)
        yield from self.lock.release()
        return tid

    def steal_oldest(self, stealable=None, max_batch: int = 2) -> Generator:
        """Steal up to ``max_batch`` tasks from the FIFO end; returns a
        list of tids. ``stealable(tid)`` lets the caller reject pinned
        tasks: a pinned entry stops the batch (a real implementation
        may only take the exposed queue end).

        Probes emptiness *without* the lock first (plain reads of the
        control words) so that the common failed-steal case does not
        bounce the victim's lock line — the standard tuning for
        shared-memory work stealing.
        """
        head = yield LoadAcquire(self.head_addr)
        tail = yield LoadAcquire(self.tail_addr)
        if head == tail:
            return []
        got = yield from self.lock.acquire_bounded(max_attempts=3)
        if not got:
            return []
        head = yield LoadAcquire(self.head_addr)
        tail = yield LoadAcquire(self.tail_addr)
        taken: list[int] = []
        # steal up to half the queue, capped at max_batch — one locked
        # visit amortizes across several migrated tasks, which keeps
        # the inevitable hot queue (all early tasks start on one node)
        # from serializing every thief behind one-entry steals
        want = min(max_batch, max(1, (tail - head) // 2))
        while head != tail and len(taken) < want:
            tid = yield from self._read_entry(head)
            if stealable is not None and not stealable(tid):
                break
            taken.append(tid)
            head += 1
        if taken:
            yield StoreRelease(self.head_addr, head)
        yield from self.lock.release()
        return taken


class ShmemScheduler(NodeScheduler):
    """Scheduler whose queues are reached exclusively via shared memory."""

    def __init__(self, rt, node: int) -> None:
        super().__init__(rt, node)
        self.queue = SMQueue(
            rt.machine,
            node,
            capacity=rt.p.sm_queue_capacity,
            entry_words=rt.p.sm_entry_words,
        )
        # the idle backoff's unlocked emptiness probe: two shared-memory
        # reads that hit while the queue stays empty; a remote pusher's
        # store invalidates our copy, so the next poll misses and sees
        # the new tail (self-synchronizing)
        self.poll_ready = operator.ne
        self.poll_addrs = (self.queue.head_addr, self.queue.tail_addr)

    # ------------------------------------------------------------------
    def push(self, task: Task) -> Generator:
        yield from self.queue.push(task.tid)

    def pop_local(self) -> Generator:
        tid = yield from self.queue.pop_newest()
        return self._claim(tid)

    def steal_from(self, victim: int) -> Generator:
        vq = self.rt.schedulers[victim].queue
        tids = yield from vq.steal_oldest(
            stealable=lambda t: not self.rt.tasks[t].pinned,
            max_batch=self.rt.p.sm_steal_batch,
        )
        if not tids:
            return None
        first = self._claim(tids[0])
        # surplus of the batch goes onto our own queue (cheap: the
        # lines are local and unshared until somebody probes us)
        for tid in tids[1:]:
            yield from self.queue.push(tid)
        return first

    def remote_push(self, dest: int, task: Task, src: int | None = None) -> Generator:
        """§4.3's shared-memory remote thread invocation: lock the
        remote queue, write the entry, unlock — every step a remote
        memory transaction. (``src`` is unused: coherence traffic is
        hardware-reliable.)"""
        dq = self.rt.schedulers[dest].queue
        yield from dq.push(task.tid)

    def queue_length(self) -> int:
        store = self.rt.machine.store
        head = store.read(self.queue.head_addr)
        tail = store.read(self.queue.tail_addr)
        return tail - head

    # ------------------------------------------------------------------
    def _claim(self, tid: int) -> Task | None:
        if tid == 0:
            return None
        task = self.rt.tasks[tid]
        if not task.claim():  # pragma: no cover - queue discipline prevents it
            return None
        return task
