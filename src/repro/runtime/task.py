"""Tasks: the unit of lazily-created parallelism.

Following lazy task creation [Mohr, Kranz & Halstead '91], a ``fork``
pushes a cheap task descriptor onto the forking node's queue. If
nobody steals it, the parent later *inlines* it at (or before) the
join — never paying thread-creation cost. If an idle processor steals
it, the task becomes a real thread there and the parent blocks on its
future at the join.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.check import hooks
from repro.runtime.sync import Future

TaskFactory = Callable[["object", int], Generator]
"""Called as ``factory(rt, node)`` where ``node`` is wherever the task
actually runs."""


class TaskState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass
class Task:
    factory: TaskFactory
    home: int
    #: numbered per Runtime from 1 (0 means "no task" in queue words)
    tid: int
    label: str = ""
    future: Future = field(default_factory=Future)
    state: TaskState = TaskState.QUEUED
    ran_on: int | None = None
    #: pinned tasks may not be stolen — remote thread invocation (§4.3)
    #: targets a specific processor
    pinned: bool = False

    def claim(self) -> bool:
        """Transition QUEUED -> RUNNING; False if someone else won."""
        if self.state is not TaskState.QUEUED:
            return False
        self.state = TaskState.RUNNING
        return True

    def body(self, rt, node: int) -> Generator:
        """The task's execution wrapper: run and resolve the future."""
        if hooks.SINKS:
            # a stolen descriptor travels through Python-level queue
            # state; inherit the forker's clock published at make_task
            hooks.observe(("task", self.tid))
        self.ran_on = node
        result = yield from self.factory(rt, node)
        self.state = TaskState.DONE
        self.future.resolve(result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task#{self.tid} {self.label!r} {self.state.value} home={self.home}>"
