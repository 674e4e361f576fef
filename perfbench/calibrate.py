"""Host-speed calibration.

The host's speed drifts by tens of percent over minutes, for reasons
outside the program (other tenants of the machine). Every measuring
process therefore times a fixed piece of pure-Python work beside its
measurements, and the benchmark reports each time as it would read on
a host where that work takes ``REFERENCE_S``:
``reported = measured * REFERENCE_S / calibration``. The work uses
nothing from the package, so no change to the program can move it; it
resembles the simulator's hot loop (a heap-ordered event queue driving
generators that update a dictionary of objects spread over a few MB).
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: median time of one calibration slice on the recording host (design.json)
REFERENCE_S = 0.012
#: objects in the calibration's working set
_CELLS = 1 << 15


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0


def _actor(i: int):
    x = i * 2654435761 & 0xFFFFFFFF
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield x


def work(cells: dict, events: int = 12_000) -> int:
    """The fixed work: ``events`` steps of a 64-actor event queue over
    ``cells``, a dict of ``_CELLS`` cells."""
    actors = [_actor(i) for i in range(64)]
    heap = [(0, i, i) for i in range(64)]
    seq = 64
    total = 0
    for _ in range(events):
        now, _, i = heapq.heappop(heap)
        x = next(actors[i])
        cell = cells[x & (_CELLS - 1)]
        cell.hits += 1
        cell.value ^= x
        total += cell.value & 7
        seq += 1
        heapq.heappush(heap, (now + (x & 63) + 1, seq, i))
    return total


class Calibration:
    """Slices timed through one process's measurements. The working set
    is built once, and the collector is off while a slice runs, so the
    program's own heap cannot change what a slice costs."""

    def __init__(self) -> None:
        self.cells = {k: _Cell(k) for k in range(_CELLS)}
        self.slices: list[float] = []

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            enabled = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            work(self.cells)
            self.slices.append(time.perf_counter() - t0)
            if enabled:
                gc.enable()


def factor(slices: list[float]) -> float:
    """Multiply a time measured beside ``slices`` by this to report it
    at reference speed."""
    return REFERENCE_S / statistics.median(slices)
