"""MCS list-based queue lock [Mellor-Crummey & Scott, TOCS '91].

The paper cites MCS for scalable shared-memory synchronization; this
is the lock the barrier paper made famous, on our simulated machine.
Each waiter spins on a flag in its *own* node's memory, so a release
causes exactly one remote invalidation instead of a free-for-all on
the lock word — the contended-lock counterpart of the combining-tree
barrier's local-spin discipline.

Layout:
  tail               one word at the lock's home: 0, or 1+owner node id
  qnode[n].locked    one line homed at node n (n spins here)
  qnode[n].next      one line homed at node n

``acquire``/``release`` must be called with the node id of the
executing processor; a node cannot hold the lock twice (no recursion).
"""

from __future__ import annotations

import operator
from typing import Generator

from repro.machine.machine import Machine
from repro.proc.effects import Compute, FetchOp, LoadAcquire, Poll, StoreRelease
from repro.sim.engine import SimulationError


class MCSLock:
    """A queue lock usable from every node of a machine."""

    #: cycles between probes of a waiter's flag
    SPIN_BACKOFF = 8

    def __init__(self, machine: Machine, home: int = 0) -> None:
        self.machine = machine
        self.tail_addr = machine.alloc(home, 8)
        n = machine.n_nodes
        self.locked_addr = [machine.alloc(node, 8) for node in range(n)]
        self.next_addr = [machine.alloc(node, 8) for node in range(n)]
        self._held_by: set[int] = set()  # debug guard, no simulated cost

    # ------------------------------------------------------------------
    def acquire(self, node: int) -> Generator:
        """``yield from lock.acquire(node)``"""
        if node in self._held_by:
            raise SimulationError(f"MCS lock is not recursive (node {node})")
        self._held_by.add(node)
        me = node + 1  # 0 is the null tail
        # prepare my qnode (local stores)
        yield StoreRelease(self.next_addr[node], 0)
        yield StoreRelease(self.locked_addr[node], 1)
        # swap myself in as the tail
        pred = yield FetchOp(self.tail_addr, lambda _v, me=me: me)
        if pred == 0:
            return  # uncontended
        # link behind the predecessor and spin on MY OWN flag
        yield StoreRelease(self.next_addr[pred - 1], me)
        yield Poll(self.SPIN_BACKOFF, None, operator.not_,
                   (self.locked_addr[node],))

    def release(self, node: int) -> Generator:
        """``yield from lock.release(node)``"""
        if node not in self._held_by:
            raise SimulationError(f"node {node} releasing an MCS lock it doesn't hold")
        me = node + 1
        nxt = yield LoadAcquire(self.next_addr[node])
        if nxt == 0:
            # no visible successor: try to swing the tail back to null
            old = yield FetchOp(
                self.tail_addr, lambda v, me=me: 0 if v == me else v
            )
            if old == me:
                self._held_by.discard(node)
                return  # nobody was waiting
            # a successor is mid-linkage; wait for it to appear
            while True:
                nxt = yield LoadAcquire(self.next_addr[node])
                if nxt != 0:
                    break
                yield Compute(self.SPIN_BACKOFF)
        # hand the lock directly to the successor (one remote write)
        yield StoreRelease(self.locked_addr[nxt - 1], 0)
        self._held_by.discard(node)
