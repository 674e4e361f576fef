"""Combining-tree reductions (all-reduce): the barrier with data.

A global reduction (e.g. the residual norm in an iterative solver)
combines one value per processor and broadcasts the result — a
barrier whose arrival signals carry payloads. Like the §4.2 barrier,
both mechanisms are provided:

* :class:`SMTreeReduce` — contribution words in shared memory next to
  the arrival flags of an MCS-style tree; parents read the children's
  values after seeing their flags.
* :class:`MPTreeReduce` — the arrival message carries the partial
  value; handlers fold it into the leader's accumulator (paper §2.2:
  bundling synchronization with data pays off even more when data is
  attached to every signal). It is the one message combining tree:
  without an operator no data rides along, and it is the §4.2
  barrier (:class:`~repro.runtime.barrier.MPTreeBarrier`).

Reduction operators must be associative and commutative; values are
Python numbers (transported intact through the simulated memory /
message machinery).
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Generator

from repro.check import hooks
from repro.machine.machine import Machine
from repro.proc.effects import (
    Compute,
    Load,
    Poll,
    Store,
    StoreRelease,
    Suspend,
)
from repro.runtime.reliable import ReliableLayer

MSG_RED_UP = "red.up"
MSG_RED_DOWN = "red.down"

ReduceOp = Callable[[Any, Any], Any]


def kary_heap(n: int, arity: int) -> tuple[list[list[int]], list[int | None]]:
    """``(children, parent)`` of a k-ary heap over ``n`` processors:
    processor ``p``'s children are ``k*p+1 .. k*p+k``."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    children = [
        [c for c in range(arity * p + 1, arity * p + arity + 1) if c < n]
        for p in range(n)
    ]
    parent: list[int | None] = [None] * n
    for p, kids in enumerate(children):
        for c in kids:
            parent[c] = p
    return children, parent


class SMTreeReduce:
    """Shared-memory combining-tree all-reduce (binary by default)."""

    #: cycles between flag probes while waiting
    SPIN_BACKOFF = 6

    def __init__(self, machine: Machine, arity: int = 2) -> None:
        n = machine.n_nodes
        self.children, self.parent = kary_heap(n, arity)
        self.machine = machine
        self.arity = arity
        # per-child: arrival flag + value word, homed at the parent
        self.flag_addr = [0] * n
        self.value_addr = [0] * n
        for p in range(n):
            for c in self.children[p]:
                self.flag_addr[c] = machine.alloc(p, 8)
                self.value_addr[c] = machine.alloc(p, 8)
        # result broadcast: flag + value homed at each node
        self.res_flag = [machine.alloc(p, 8) for p in range(n)]
        self.res_value = [machine.alloc(p, 8) for p in range(n)]
        self._episode = [0] * n

    def reduce(self, node: int, value: Any, op: ReduceOp) -> Generator:
        """``total = yield from red.reduce(node, my_value, operator.add)``"""
        self._episode[node] += 1
        episode = self._episode[node]
        backoff = self.SPIN_BACKOFF
        arrived = partial(operator.le, episode)
        acc = value
        # combine the children's contributions
        for c in self.children[node]:
            yield Poll(backoff, None, arrived, (self.flag_addr[c],))
            child_val = yield Load(self.value_addr[c])
            acc = op(acc, child_val)
            yield Compute(2)  # the combine arithmetic
        if self.parent[node] is not None:
            yield Store(self.value_addr[node], acc)
            yield StoreRelease(self.flag_addr[node], episode)  # flag after data
            yield Poll(backoff, None, arrived, (self.res_flag[node],))
            result = yield Load(self.res_value[node])
        else:
            result = acc
        for c in self.children[node]:
            yield Store(self.res_value[c], result)
            yield StoreRelease(self.res_flag[c], episode)
        return result


class MPTreeReduce:
    """Explicit-message combining tree: one message per edge, data
    bundled with the arrival signal.

    ``group`` internal nodes sit on processors ``0, g, 2g, ...`` where
    ``g = n / fanout``; the root is processor 0. With n=64 and
    fanout=8 this is the paper's two-level eight-ary tree. With
    ``op=None`` arrivals and releases carry only the episode number.

    Messages travel through ``reliable`` when given (a lost arrival
    would otherwise hang the whole episode), else raw through the
    machine.
    """

    #: message types of an arrival (up the tree) and a release (down)
    UP = MSG_RED_UP
    DOWN = MSG_RED_DOWN
    #: handler bookkeeping costs (count/check/combine work a real
    #: handler performs per event); a leader's own arrival costs half
    ARRIVE_COST = 18
    RELEASE_COST = 10

    def __init__(
        self,
        machine: Machine,
        op: ReduceOp | None,
        fanout: int = 8,
        reliable: ReliableLayer | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.machine = machine
        self.op = op
        self.fanout = fanout
        self.net = reliable or machine
        n = machine.n_nodes
        self.group_size = max(1, n // fanout) if n > fanout else 1
        # leaders: first node of each group; root is node 0
        self.leaders = sorted({(p // self.group_size) * self.group_size for p in range(n)})
        # per node, per episode: arrivals counted, their folded values,
        # the leader's own value, the result, the suspended caller
        self._count: list[dict[int, int]] = [dict() for _ in range(n)]
        self._acc: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._own: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._result: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._waiters: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._episode = [0] * n
        for p in range(n):
            self.net.register_handler(p, self.UP, self._make_up_handler(p))
            self.net.register_handler(p, self.DOWN, self._make_down_handler(p))

    # ------------------------------------------------------------------
    def leader_of(self, node: int) -> int:
        return (node // self.group_size) * self.group_size

    def _expected(self, leader: int) -> int:
        """Arrivals ``leader`` waits for (its group members, or, at the
        root, also the other leaders), excluding itself."""
        n = self.machine.n_nodes
        if leader == 0:
            group = min(self.group_size, n)
            return (group - 1) + (len(self.leaders) - 1)
        return min(self.group_size, n - leader) - 1

    def _payload(self, episode: int, value: Any) -> tuple:
        return (episode,) if self.op is None else (episode, value)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _make_up_handler(self, node: int):
        def handler(msg) -> Generator:
            episode = msg.operands[0]
            yield Compute(self.ARRIVE_COST)
            if self.op is not None:
                acc, value = self._acc[node], msg.operands[1]
                acc[episode] = self.op(acc[episode], value) if episode in acc else value
            self._count[node][episode] = self._count[node].get(episode, 0) + 1
            if hooks.SINKS:
                # the count and accumulator live in Python dicts shared
                # by many handler contexts; publish this arriver's clock
                # so the eventual release inherits it
                hooks.signal(("mptree-up", id(self), node, episode))
            yield from self._maybe_up(node, episode)

        return handler

    def _maybe_up(self, node: int, episode: int) -> Generator:
        """Leader logic: once the leader and everyone it waits for have
        arrived, send the combined value up (or, at the root, release)."""
        if self._count[node].get(episode, 0) != self._expected(node):
            return
        if self._episode[node] < episode:
            return  # the leader itself has not arrived yet
        if hooks.SINKS:
            hooks.observe(("mptree-up", id(self), node, episode))
        self._count[node].pop(episode, None)
        total = self._own[node].pop(episode)
        if episode in self._acc[node]:
            total = self.op(self._acc[node].pop(episode), total)
        if node == 0:
            yield from self._release(0, episode, total)
        else:
            yield from self.net.send(node, 0, self.UP, self._payload(episode, total))

    def _release(self, leader: int, episode: int, total: Any) -> Generator:
        """Deliver locally, then fan the release out: the root to the
        other leaders and its group, any other leader to its group."""
        self._deliver(leader, episode, total)
        payload = self._payload(episode, total)
        if leader == 0:
            for other in self.leaders[1:]:
                yield from self.net.send(0, other, self.DOWN, payload)
        for member in range(leader + 1, min(leader + self.group_size, self.machine.n_nodes)):
            yield from self.net.send(leader, member, self.DOWN, payload)

    def _make_down_handler(self, node: int):
        def handler(msg) -> Generator:
            episode = msg.operands[0]
            total = None if self.op is None else msg.operands[1]
            yield Compute(self.RELEASE_COST)
            if node == self.leader_of(node):
                yield from self._release(node, episode, total)
            else:
                self._deliver(node, episode, total)

        return handler

    def _deliver(self, node: int, episode: int, total: Any) -> None:
        if hooks.SINKS:
            hooks.signal(("mptree-down", id(self), node, episode))
        self._result[node][episode] = total
        resume = self._waiters[node].pop(episode, None)
        if resume is not None:
            resume(total)

    # ------------------------------------------------------------------
    def reduce(self, node: int, value: Any, op: ReduceOp | None = None) -> Generator:
        """``total = yield from red.reduce(node, my_value)`` — the
        operator is fixed at construction (handlers fold with it even
        before this node's own contribution arrives); a per-call ``op``
        must match it and exists only for API symmetry with the SM
        variant."""
        if op is not None and op is not self.op:
            raise ValueError("MPTreeReduce operator is fixed at construction")
        self._episode[node] += 1
        episode = self._episode[node]
        leader = self.leader_of(node)
        if node == leader:
            # leaders count their own arrival by checking episode state
            self._own[node][episode] = value
            yield Compute(self.ARRIVE_COST // 2)
            if hooks.SINKS:
                hooks.signal(("mptree-up", id(self), node, episode))
            yield from self._maybe_up(node, episode)
        else:
            yield from self.net.send(node, leader, self.UP, self._payload(episode, value))
        if episode not in self._result[node]:
            yield Suspend(lambda resume: self._waiters[node].__setitem__(episode, resume))
        total = self._result[node].pop(episode)
        if hooks.SINKS:
            hooks.observe(("mptree-down", id(self), node, episode))
        return total
