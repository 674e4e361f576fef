"""Happens-before hook points for runtime primitives.

Synchronization objects built *after* a machine was observed (futures,
tasks, message barriers and reductions — the runtime constructs them
on demand) have no probe points for the checker to subscribe to at
attach time. Instead they announce their ordering edges through this
module:

* ``signal(key)`` — "everything I did so far happens-before whoever
  observes ``key``" (a future resolving, a barrier arrival).
* ``observe(key)`` — "join everything signalled on ``key`` into my
  clock" (a future's waiter, the barrier's release decision).

Keys are tuples such as ``("future", fid)``, ``("task", tid)`` or
``("mptree-down", id(tree), node, episode)``. They need only be unique
within one machine (task ids count per runtime, from 1), because a
sink acts only on hook calls made on its own machine's thread, while
that machine is executing a context. Machines checked on other
threads (``serve --workers N`` runs one job per thread) therefore
never see each other's edges.

When no checker is registered the hooks are dead cheap: callers guard
with ``if hooks.SINKS:`` (one attribute read and a falsy test), so an
unchecked run allocates nothing. Registered sinks resolve the calling
thread and execution context themselves.
"""

from __future__ import annotations

import threading
from typing import Any

#: registered sinks (one per checked machine); empty = checking off.
#: Replaced, never mutated, so a thread iterating it while another
#: registers or unregisters still visits every sink it holds
SINKS: list[Any] = []
_LOCK = threading.Lock()


def signal(key: tuple) -> None:
    """Publish the calling context's clock under ``key``."""
    for sink in SINKS:
        sink.signal(key)


def observe(key: tuple) -> None:
    """Join every clock published under ``key`` into the caller."""
    for sink in SINKS:
        sink.observe(key)


def register(sink: Any) -> None:
    global SINKS
    with _LOCK:
        SINKS = [*SINKS, sink]


def unregister(sink: Any) -> None:
    global SINKS
    with _LOCK:
        SINKS = [s for s in SINKS if s is not sink]
