"""Probe points: the one place observers attach to a machine.

Each instrumented component class (``Processor``, ``Network``,
``CoherenceEngine``, ``Cmmu``, ``Cache``, ``Directory``) names its
probe points in a ``PROBES`` class attribute. A point is an instance
attribute holding a tuple of callbacks — ``()`` while nothing is
attached — that the component fires where the name says:
``before_<method>`` on entry, ``after_<method>`` once the body has
run. An unobserved component pays one loop over an empty tuple per
site and runs no observer code; subscribers to one point fire in
attach order.

An observer keeps its callbacks in a :class:`Subscriptions` so they
detach as a group, in any order relative to other observers.
"""

from __future__ import annotations

from typing import Any, Callable


class Subscriptions:
    """The probe callbacks one observer has attached."""

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: list[tuple[Any, str, Callable]] = []

    @property
    def active(self) -> bool:
        return bool(self._subs)

    def add(self, component: Any, point: str, fn: Callable) -> None:
        """Append ``fn`` to ``component``'s probe ``point``."""
        setattr(component, point, getattr(component, point) + (fn,))
        self._subs.append((component, point, fn))

    def clear(self) -> None:
        """Remove every callback added here (idempotent)."""
        for component, point, fn in self._subs:
            setattr(component, point,
                    tuple(f for f in getattr(component, point) if f is not fn))
        self._subs.clear()
