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
  attached to every signal).

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
    Send,
    Store,
    StoreRelease,
    Suspend,
)

MSG_RED_UP = "red.up"
MSG_RED_DOWN = "red.down"

ReduceOp = Callable[[Any, Any], Any]


class SMTreeReduce:
    """Shared-memory combining-tree all-reduce (binary by default)."""

    def __init__(self, machine: Machine, arity: int = 2, spin_backoff: int = 6) -> None:
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.machine = machine
        self.arity = arity
        self.spin_backoff = spin_backoff
        n = machine.n_nodes
        self.children = [
            [c for c in range(arity * p + 1, arity * p + arity + 1) if c < n]
            for p in range(n)
        ]
        self.parent: list[int | None] = [None] * n
        for p in range(n):
            for c in self.children[p]:
                self.parent[c] = p
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
        backoff = self.spin_backoff
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
    """Message combining-tree all-reduce: one message per edge, data
    bundled with the arrival signal."""

    def __init__(
        self, machine: Machine, op: ReduceOp, fanout: int = 8,
        arrive_cost: int = 18, release_cost: int = 10,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.machine = machine
        self.op = op
        self.fanout = fanout
        self.arrive_cost = arrive_cost
        self.release_cost = release_cost
        n = machine.n_nodes
        self.group_size = max(1, n // fanout) if n > fanout else 1
        self.leaders = sorted({(p // self.group_size) * self.group_size for p in range(n)})
        self._acc: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._count: list[dict[int, int]] = [dict() for _ in range(n)]
        self._own: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._result: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._waiters: list[dict[int, Any]] = [dict() for _ in range(n)]
        self._episode = [0] * n
        for p in range(n):
            proc = machine.processor(p)
            proc.register_handler(MSG_RED_UP, self._make_up_handler(p))
            proc.register_handler(MSG_RED_DOWN, self._make_down_handler(p))

    # ------------------------------------------------------------------
    def leader_of(self, node: int) -> int:
        return (node // self.group_size) * self.group_size

    def _expected(self, leader: int) -> int:
        n = self.machine.n_nodes
        if leader == 0:
            group = min(self.group_size, n)
            return (group - 1) + (len(self.leaders) - 1)
        return min(self.group_size, n - leader) - 1

    # ------------------------------------------------------------------
    def _make_up_handler(self, node: int):
        def handler(msg) -> Generator:
            episode, value = msg.operands
            yield Compute(self.arrive_cost)
            self._fold(node, episode, value)
            if hooks.SINKS:
                # accumulator crosses handler contexts via Python dicts
                hooks.signal(("red-arr", id(self), node, episode))
            yield from self._maybe_up(node, episode)

        return handler

    def _fold(self, node: int, episode: int, value: Any) -> None:
        op = self.op
        if episode in self._acc[node]:
            self._acc[node][episode] = op(self._acc[node][episode], value)
        else:
            self._acc[node][episode] = value
        self._count[node][episode] = self._count[node].get(episode, 0) + 1

    def _maybe_up(self, node: int, episode: int) -> Generator:
        if self._count[node].get(episode, 0) != self._expected(node):
            return
        if episode not in self._own[node]:
            return  # leader hasn't contributed yet
        if hooks.SINKS:
            hooks.observe(("red-arr", id(self), node, episode))
        own = self._own[node][episode]
        if episode in self._acc[node]:
            total = self.op(self._acc[node].pop(episode), own)
        else:
            total = own  # leader with no group members (tiny machines)
        self._count[node].pop(episode, None)
        if node == 0:
            yield from self._broadcast(episode, total)
        else:
            yield Send(0, MSG_RED_UP, operands=(episode, total))

    def _broadcast(self, episode: int, total: Any) -> Generator:
        for leader in self.leaders:
            if leader != 0:
                yield Send(leader, MSG_RED_DOWN, operands=(episode, total))
        yield from self._fan_group(0, episode, total)
        self._deliver(0, episode, total)

    def _fan_group(self, leader: int, episode: int, total: Any) -> Generator:
        n = self.machine.n_nodes
        for member in range(leader + 1, min(leader + self.group_size, n)):
            yield Send(member, MSG_RED_DOWN, operands=(episode, total))

    def _make_down_handler(self, node: int):
        def handler(msg) -> Generator:
            episode, total = msg.operands
            yield Compute(self.release_cost)
            if node in self.leaders and node != 0:
                yield from self._fan_group(node, episode, total)
            self._deliver(node, episode, total)

        return handler

    def _deliver(self, node: int, episode: int, total: Any) -> None:
        if hooks.SINKS:
            hooks.signal(("red-res", id(self), node, episode))
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
            self._own[node][episode] = value
            yield Compute(self.arrive_cost // 2)
            yield from self._maybe_up(node, episode)
        else:
            yield Send(leader, MSG_RED_UP, operands=(episode, value))
        if episode in self._result[node]:
            total = self._result[node].pop(episode)
            self._own[node].pop(episode, None)
            if hooks.SINKS:
                hooks.observe(("red-res", id(self), node, episode))
            return total
        total = yield Suspend(
            lambda resume: self._waiters[node].__setitem__(episode, resume)
        )
        self._result[node].pop(episode, None)
        self._own[node].pop(episode, None)
        if hooks.SINKS:
            hooks.observe(("red-res", id(self), node, episode))
        return total
