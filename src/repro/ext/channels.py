"""Producer-consumer channels over the integrated interface.

Paper §6 closes with the plan to "continue investigating further
integration, including ... programming systems which provide limited
programmer access to both the shared-memory and message-passing
interfaces". This module is that idea as a library: a typed FIFO
channel whose *transport* is selectable —

* ``mechanism="sm"`` — a bounded ring buffer in shared memory with
  per-slot availability/drain counters (the classic flag-then-data
  pattern of §2.2: synchronization and payload travel as separate
  coherence transactions).
* ``mechanism="mp"`` — each ``put`` is one message bundling the
  synchronization event with the data; the receiving handler queues
  the value and wakes any blocked consumer.

Both present the same ``put``/``get`` generator API, so application
code is mechanism-agnostic — the §2.2 trade-off becomes a one-word
configuration choice.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.machine.machine import Machine
from repro.proc.effects import Compute, Load, Send, Store, Suspend
from repro.sim.engine import SimulationError

MSG_CHAN_PUT = "chan.put"


class Channel:
    """A single-producer, single-consumer FIFO between two nodes."""

    def __init__(
        self,
        machine: Machine,
        producer: int,
        consumer: int,
        mechanism: str = "mp",
        capacity: int = 16,
    ) -> None:
        if mechanism not in ("sm", "mp"):
            raise ValueError(f"mechanism must be 'sm' or 'mp', got {mechanism!r}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.machine = machine
        self.producer = producer
        self.consumer = consumer
        self.mechanism = mechanism
        self.capacity = capacity
        #: per machine, so the handler's message type (chan.put.<cid>)
        #: is the same whatever else the process has simulated
        self.cid = next(machine.sim.ids)
        if mechanism == "sm":
            # Ring buffer: data and availability counters homed at the
            # consumer (it polls them locally); drain counters homed at
            # the producer (likewise). Each counter on its own line.
            self._slots = [machine.alloc(consumer, 8) for _ in range(capacity)]
            self._avail = [machine.alloc(consumer, 8) for _ in range(capacity)]
            self._drained = [machine.alloc(producer, 8) for _ in range(capacity)]
            self._put_seq = 0
            self._get_seq = 0
        else:
            self._queue: deque[Any] = deque()
            self._waiter = None
            self._register_handler()

    # ------------------------------------------------------------------
    # Message-passing transport
    # ------------------------------------------------------------------
    def _register_handler(self) -> None:
        proc = self.machine.processor(self.consumer)
        self._mtype = f"{MSG_CHAN_PUT}.{self.cid}"

        def handler(msg) -> Generator:
            yield Compute(3)
            self._queue.append(msg.operands[0])
            if self._waiter is not None:
                resume, self._waiter = self._waiter, None
                resume(None)

        proc.register_handler(self._mtype, handler)

    def _set_waiter(self, resume) -> None:
        if self._waiter is not None:
            raise SimulationError("channel is single-consumer")
        self._waiter = resume

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, value: Any) -> Generator:
        """``yield from chan.put(v)`` — runs on the producer node."""
        if self.mechanism == "mp":
            yield Send(self.consumer, self._mtype, operands=(value,))
            return
        seq = self._put_seq
        slot = seq % self.capacity
        lap = seq // self.capacity
        # wait until the previous lap's occupant of this slot drained
        # (drained[slot] holds the lap count of the last consumption)
        while True:
            d = yield Load(self._drained[slot])
            if d >= lap:
                break
            yield Compute(20)
        yield Store(self._slots[slot], value)
        yield Store(self._avail[slot], seq + 1)  # separate sync write
        self._put_seq += 1

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def get(self) -> Generator:
        """``v = yield from chan.get()`` — runs on the consumer node."""
        if self.mechanism == "mp":
            while not self._queue:
                yield Suspend(self._set_waiter)
            return self._queue.popleft()
        seq = self._get_seq
        slot = seq % self.capacity
        while True:
            a = yield Load(self._avail[slot])
            if a >= seq + 1:
                break
            yield Compute(8)
        value = yield Load(self._slots[slot])
        # publish the drain (lap count) so the producer can reuse it
        yield Store(self._drained[slot], (seq // self.capacity) + 1)
        self._get_seq += 1
        return value

    def __len__(self) -> int:
        if self.mechanism == "mp":
            return len(self._queue)
        return self._put_seq - self._get_seq
