"""Scheduler interface and the shared idle/steal driver.

Both scheduler implementations (shared-memory-only and hybrid) share
the same policy: run local work newest-first (good locality for
divide-and-conquer trees), steal oldest-first (steal big subtrees),
pick victims uniformly at random. They differ *only* in the mechanism
used to reach a queue — which is exactly the comparison the paper
makes in §4.5.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.proc.effects import Compute, Poll
from repro.runtime.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.rt import Runtime


class NodeScheduler(abc.ABC):
    """Per-node scheduler: a task queue plus work-finding policy."""

    #: the idle backoff's local-queue test (set by each scheduler kind):
    #: called with the values of one LoadAcquire of each word in
    #: ``poll_addrs``, true once local work appeared
    poll_ready: Callable[..., Any]
    poll_addrs: tuple[int, ...] = ()

    def __init__(self, rt: Runtime, node: int) -> None:
        self.rt = rt
        self.node = node
        self.rng = random.Random((rt.seed << 16) ^ node)
        self.stats_steals_attempted = 0
        self.stats_steals_won = 0
        self.stats_tasks_run = 0
        #: exponential backoff state for failed steals
        self._backoff = rt.p.steal_backoff

    # -- mechanism (implemented per scheduler kind) --------------------
    @abc.abstractmethod
    def push(self, task: Task) -> Generator:
        """Enqueue a locally-forked task (called from a running thread)."""

    @abc.abstractmethod
    def pop_local(self) -> Generator:
        """Pop the newest local task; yields effects, returns Task|None."""

    @abc.abstractmethod
    def steal_from(self, victim: int) -> Generator:
        """Try to steal the oldest task of ``victim``; returns Task|None."""

    @abc.abstractmethod
    def remote_push(self, dest: int, task: Task, src: int | None = None) -> Generator:
        """Remote thread invocation: place ``task`` on ``dest``'s queue
        (the §4.3 primitive). Runs on the *invoking* processor;
        ``src`` names the invoking node (needed in reliable mode)."""

    @abc.abstractmethod
    def queue_length(self) -> int:
        """Instantaneous local queue occupancy (diagnostics only)."""

    def register_metrics(self, reg, **labels) -> None:
        """Register this scheduler's instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        labels = {"component": "scheduler", "kind": self.rt.kind, **labels}
        reg.counter("sched.steals_attempted",
                    lambda: self.stats_steals_attempted, **labels)
        reg.counter("sched.steals_won", lambda: self.stats_steals_won, **labels)
        reg.counter("sched.tasks_run", lambda: self.stats_tasks_run, **labels)
        reg.gauge("sched.queue_depth", self.queue_length, **labels)

    # -- policy (shared) ------------------------------------------------
    def pick_victim(self) -> int | None:
        n = self.rt.machine.n_nodes
        if n <= 1:
            return None
        v = self.rng.randrange(n - 1)
        return v if v < self.node else v + 1

    def idle_step(self) -> Generator | None:
        """Installed as the processor's idle hook: one attempt to find
        work. Returns None (sleep) once the runtime is done."""
        if self.rt.done:
            return None
        return self._idle_gen()

    def _idle_gen(self) -> Generator:
        task = yield from self.pop_local()
        if task is not None:
            self._backoff = self.rt.p.steal_backoff
            self.rt.start_task(self.node, task)
            return
        victim = self.pick_victim()
        if victim is not None:
            self.stats_steals_attempted += 1
            task = yield from self.steal_from(victim)
            if task is not None:
                self.stats_steals_won += 1
                self._backoff = self.rt.p.steal_backoff
                self.rt.start_task(self.node, task)
                return
        # failed probe: back off exponentially (capped) so idle
        # processors do not saturate victims' queues or the network —
        # but keep polling the local queue every poll_quantum cycles so
        # an invoked/migrated task is dispatched promptly (§4.3's
        # Tinvokee depends on this). pop_local has just looked at the
        # queue, so a quantum passes before the first probe.
        p = self.rt.p
        quantum = p.poll_quantum
        yield Compute(quantum)
        yield Poll(quantum, -(-self._backoff // quantum), self.poll_ready,
                   self.poll_addrs)
        self._backoff = min(self._backoff * 2, p.steal_backoff_max)
