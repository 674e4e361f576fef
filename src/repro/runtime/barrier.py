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
  processors).

Both are reusable across episodes (sense reversal for SM, episode
numbering for MP).
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Generator

from repro.check import hooks
from repro.machine.machine import Machine
from repro.proc.effects import Compute, Poll, Send, StoreRelease, Suspend
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

    def __init__(
        self,
        machine: Machine,
        arity: int = 2,
        spin_backoff: int = 6,
    ) -> None:
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.machine = machine
        self.arity = arity
        self.spin_backoff = spin_backoff
        n = machine.n_nodes
        self.children: list[list[int]] = [
            [c for c in range(arity * p + 1, arity * p + arity + 1) if c < n]
            for p in range(n)
        ]
        self.parent: list[int | None] = [None] * n
        for p in range(n):
            for c in self.children[p]:
                self.parent[c] = p
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
        backoff = self.spin_backoff
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


class MPTreeBarrier:
    """Explicit-message combining tree: one message per event.

    ``group`` internal nodes sit on processors ``0, g, 2g, ...`` where
    ``g = n / fanout``; the root is processor 0. With n=64 and
    fanout=8 this is the paper's two-level eight-ary tree.
    """

    def __init__(
        self,
        rt_machine: Machine,
        fanout: int = 8,
        arrive_cost: int = 16,
        release_cost: int = 10,
        reliable: ReliableLayer | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.machine = rt_machine
        self.fanout = fanout
        #: with a ReliableLayer, arrive/release events survive packet
        #: loss (a lost arrival would otherwise hang the whole episode)
        self.reliable = reliable
        #: handler bookkeeping costs (count/check/lookup work a real
        #: barrier handler performs per event)
        self.arrive_cost = arrive_cost
        self.release_cost = release_cost
        n = rt_machine.n_nodes
        self.group_size = max(1, n // fanout) if n > fanout else 1
        # leaders: first node of each group; root is node 0
        self.leaders = sorted({(p // self.group_size) * self.group_size for p in range(n)})
        # per-node barrier state
        self._arrived: list[dict[int, int]] = [dict() for _ in range(n)]
        self._released: list[set[int]] = [set() for _ in range(n)]
        self._waiters: list[dict[int, list]] = [dict() for _ in range(n)]
        self._episode: list[int] = [0] * n
        for p in range(n):
            if reliable is not None:
                reliable.register_handler(p, MSG_BAR_ARRIVE, self._make_arrive_handler(p))
                reliable.register_handler(p, MSG_BAR_RELEASE, self._make_release_handler(p))
            else:
                proc = rt_machine.processor(p)
                proc.register_handler(MSG_BAR_ARRIVE, self._make_arrive_handler(p))
                proc.register_handler(MSG_BAR_RELEASE, self._make_release_handler(p))

    def _send(self, src: int, dst: int, mtype: str, operands) -> Generator:
        if self.reliable is None:
            yield Send(dst, mtype, operands=operands)
        else:
            yield from self.reliable.send(src, dst, mtype, operands)

    # ------------------------------------------------------------------
    def leader_of(self, node: int) -> int:
        return (node // self.group_size) * self.group_size

    def _expected(self, leader: int) -> int:
        """Arrivals leader waits for (its group members, or, at the
        root, the other leaders), excluding itself."""
        n = self.machine.n_nodes
        if leader == 0:
            group = len(range(0, min(self.group_size, n)))
            others = len(self.leaders) - 1
            return (group - 1) + others
        return min(self.group_size, n - leader) - 1

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _make_arrive_handler(self, node: int):
        def handler(msg) -> Generator:
            (episode,) = msg.operands
            yield Compute(self.arrive_cost)
            self._arrived[node][episode] = self._arrived[node].get(episode, 0) + 1
            if hooks.SINKS:
                # the arrival count lives in a Python dict shared by
                # many handler contexts; publish this arriver's clock
                # so the eventual release inherits it
                hooks.signal(("bar-arr", id(self), node, episode))
            yield from self._maybe_advance(node, episode)

        return handler

    def _maybe_advance(self, node: int, episode: int) -> Generator:
        """Leader logic: on full count, signal up (or release down)."""
        if self._arrived[node].get(episode, 0) != self._expected(node):
            return
        if not self._leader_local_arrived(node, episode):
            return
        if hooks.SINKS:
            hooks.observe(("bar-arr", id(self), node, episode))
        self._arrived[node].pop(episode, None)
        if node == 0:
            yield from self._release(0, episode)
        else:
            yield from self._send(node, 0, MSG_BAR_ARRIVE, (episode,))

    def _leader_local_arrived(self, node: int, episode: int) -> bool:
        return self._episode[node] >= episode

    def _release(self, node: int, episode: int) -> Generator:
        """Wake the local waiter and fan the release out."""
        if hooks.SINKS:
            hooks.signal(("bar-rel", id(self), node, episode))
        self._released[node].add(episode)
        resume = self._waiters[node].pop(episode, None)
        if resume is not None:
            resume(None)
        if node == 0:
            for leader in self.leaders:
                if leader != 0:
                    yield from self._send(0, leader, MSG_BAR_RELEASE, (episode,))
            yield from self._fan_release_group(0, episode)
        else:
            yield from self._fan_release_group(node, episode)

    def _fan_release_group(self, leader: int, episode: int) -> Generator:
        n = self.machine.n_nodes
        for member in range(leader + 1, min(leader + self.group_size, n)):
            yield from self._send(leader, member, MSG_BAR_RELEASE, (episode,))

    def _make_release_handler(self, node: int):
        def handler(msg) -> Generator:
            (episode,) = msg.operands
            yield Compute(self.release_cost)
            if node in self.leaders and node != 0:
                yield from self._release(node, episode)
            else:
                if hooks.SINKS:
                    hooks.signal(("bar-rel", id(self), node, episode))
                self._released[node].add(episode)
                resume = self._waiters[node].pop(episode, None)
                if resume is not None:
                    resume(None)

        return handler

    # ------------------------------------------------------------------
    def enter(self, node: int) -> Generator:
        """``yield from barrier.enter(node)``"""
        self._episode[node] += 1
        episode = self._episode[node]
        leader = self.leader_of(node)
        if node == leader:
            # leaders count their own arrival by checking episode state
            yield Compute(self.arrive_cost // 2)
            if hooks.SINKS:
                hooks.signal(("bar-arr", id(self), node, episode))
            yield from self._maybe_advance(node, episode)
        else:
            yield from self._send(node, leader, MSG_BAR_ARRIVE, (episode,))
        if episode in self._released[node]:
            self._released[node].discard(episode)
            if hooks.SINKS:
                hooks.observe(("bar-rel", id(self), node, episode))
            return
        yield Suspend(lambda resume: self._waiters[node].__setitem__(episode, resume))
        self._released[node].discard(episode)
        if hooks.SINKS:
            hooks.observe(("bar-rel", id(self), node, episode))
