"""Combining-tree barriers (paper §4.2).

Two implementations of the same combining-tree idea:

* :class:`SMTreeBarrier` — an MCS-style tree barrier in shared memory
  (the paper's "best shared-memory barrier", a six-level binary tree
  on 64 processors). Arrivals and wake-ups are signalled through
  memory writes; every signal costs several protocol messages (the
  write invalidates the spinner's copy, the spinner re-fetches the
  dirty line).
* :class:`MPTreeBarrier` — explicit messages achieve the ideal of one
  message per arrival/wake-up event (a two-level eight-ary tree on 64
  processors). It is the message all-reduce
  (:class:`~repro.runtime.reduce.MPTreeReduce`) with no data.

Both are reusable across episodes (sense reversal for SM, episode
numbering for MP).
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Generator

from repro.machine.machine import Machine
from repro.proc.effects import Poll, StoreRelease
from repro.runtime.reduce import MPTreeReduce, kary_heap
from repro.runtime.reliable import ReliableLayer

MSG_BAR_ARRIVE = "bar.arrive"
MSG_BAR_RELEASE = "bar.release"


class SMTreeBarrier:
    """MCS tree barrier over shared-memory flags.

    Processors form a k-ary heap: processor ``p``'s children are
    ``k*p+1 .. k*p+k``. Arrival flags are homed at the parent (each on
    its own cache line); release flags are homed at each child so the
    child spins on a line it owns until the parent's write invalidates
    it.
    """

    #: cycles between flag probes while waiting
    SPIN_BACKOFF = 6

    def __init__(self, machine: Machine, arity: int = 2) -> None:
        n = machine.n_nodes
        self.children, self.parent = kary_heap(n, arity)
        self.machine = machine
        self.arity = arity
        # arrival flag of child c: homed at its parent
        self.arrive_addr: list[int] = [0] * n
        for p in range(n):
            for c in self.children[p]:
                self.arrive_addr[c] = machine.alloc(p, 8)
        # release flag of processor p: homed at p itself
        self.release_addr: list[int] = [machine.alloc(p, 8) for p in range(n)]
        #: sense-reversal: episode counter (flags hold the episode number)
        self._episode: list[int] = [0] * n

    def depth(self) -> int:
        """Tree depth (levels of internal nodes above the leaves)."""
        d, p = 0, self.machine.n_nodes - 1
        while p > 0:
            p = (p - 1) // self.arity
            d += 1
        return d

    def enter(self, node: int) -> Generator:
        """``yield from barrier.enter(node)`` — returns after release."""
        self._episode[node] += 1
        episode = self._episode[node]
        backoff = self.SPIN_BACKOFF
        arrived = partial(operator.le, episode)
        # wait for all children to arrive (their flags are homed here,
        # but each child's write steals the line, so the re-read pays
        # a full remote transaction — the §4.2 point)
        for c in self.children[node]:
            yield Poll(backoff, None, arrived, (self.arrive_addr[c],))
        if self.parent[node] is not None:
            yield StoreRelease(self.arrive_addr[node], episode)
            yield Poll(backoff, None, arrived, (self.release_addr[node],))
        # wake the children (write into lines homed at each child)
        for c in self.children[node]:
            yield StoreRelease(self.release_addr[c], episode)


class MPTreeBarrier(MPTreeReduce):
    """Explicit-message combining tree: one message per event.

    The all-reduce tree without an operator, so arrivals and releases
    carry only the episode number. With n=64 and fanout=8 this is the
    paper's two-level eight-ary tree.
    """

    UP = MSG_BAR_ARRIVE
    DOWN = MSG_BAR_RELEASE
    ARRIVE_COST = 16

    def __init__(
        self,
        rt_machine: Machine,
        fanout: int = 8,
        reliable: ReliableLayer | None = None,
    ) -> None:
        super().__init__(rt_machine, None, fanout, reliable)

    def enter(self, node: int) -> Generator:
        """``yield from barrier.enter(node)``"""
        return self.reduce(node, None)
