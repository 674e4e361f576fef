"""Per-node coherent data cache (timing model).

A fully-associative, LRU cache of 16-byte lines holding one of the
MSI states. Only *presence and state* are tracked — line data lives
in the machine-wide :class:`~repro.memory.store.BackingStore`.

Alewife's real cache is 64 KB direct-mapped; full associativity is a
conservative simplification (fewer conflict misses) that does not
affect any experiment because the working sets either fit trivially
or are streamed once.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass


class LineState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    #: exclusive-clean (MESI only): sole copy, memory up to date; a
    #: store promotes to MODIFIED silently
    EXCLUSIVE = "E"
    MODIFIED = "M"


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    upgrades: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """LRU cache over line base addresses."""

    #: probe points (repro.sim.probe), fired once the mutator has run:
    #: after_fill and after_set_state with (line, state),
    #: after_invalidate with (line,), after_flush_range with the
    #: ``(line, prior_state)`` pairs it dropped
    PROBES = ("after_fill", "after_set_state", "after_invalidate",
              "after_flush_range")
    __slots__ = ("node", "capacity_lines", "line_size", "_lines", "stats",
                 *PROBES)

    def __init__(self, node: int, capacity_lines: int, line_size: int = 16) -> None:
        if capacity_lines <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_lines}")
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        self.node = node
        self.capacity_lines = capacity_lines
        self.line_size = line_size
        # line base address -> state; OrderedDict gives us LRU order.
        self._lines: OrderedDict[int, LineState] = OrderedDict()
        self.stats = CacheStats()
        for point in self.PROBES:
            setattr(self, point, ())

    # ------------------------------------------------------------------
    def state(self, line: int) -> LineState:
        """Current state of ``line`` (INVALID when absent)."""
        return self._lines.get(line, LineState.INVALID)

    def lookup(self, line: int, for_write: bool) -> bool:
        """Hit test with stats accounting; refreshes LRU on hit.

        A write to an EXCLUSIVE (clean) line promotes it to MODIFIED
        silently — the MESI payoff."""
        st = self._lines.get(line)
        if st is None or st is LineState.INVALID:
            self.stats.misses += 1
            return False
        if for_write:
            if st is LineState.EXCLUSIVE:
                self._lines[line] = LineState.MODIFIED
                self.stats.upgrades += 1
            elif st is not LineState.MODIFIED:
                self.stats.misses += 1  # upgrade needed: counts as a miss
                return False
        self._lines.move_to_end(line)
        self.stats.hits += 1
        return True

    def fill(self, line: int, state: LineState) -> int | None:
        """Install ``line`` in ``state``; returns an evicted dirty line.

        If installing overflows capacity, the LRU line is evicted. The
        return value is the evicted line's base address when that line
        was MODIFIED (caller must issue a writeback), else None.
        """
        if state is LineState.INVALID:
            raise ValueError("cannot fill a line INVALID")
        victim_dirty: int | None = None
        if line not in self._lines and len(self._lines) >= self.capacity_lines:
            victim, vstate = self._lines.popitem(last=False)
            self.stats.evictions += 1
            if vstate is LineState.MODIFIED:
                self.stats.writebacks += 1
                victim_dirty = victim
        self._lines[line] = state
        self._lines.move_to_end(line)
        for fn in self.after_fill:
            fn(line, state)
        return victim_dirty

    def set_state(self, line: int, state: LineState) -> None:
        """Change the state of a present line (e.g. M->S on remote read)."""
        if state is LineState.INVALID:
            self._lines.pop(line, None)
        elif line in self._lines:
            self._lines[line] = state
        else:
            raise KeyError(f"line {line:#x} not present in cache of node {self.node}")
        for fn in self.after_set_state:
            fn(line, state)

    def invalidate(self, line: int) -> LineState:
        """Drop ``line``; returns its prior state (protocol inv or DMA flush)."""
        prior = self._lines.pop(line, LineState.INVALID)
        if prior is not LineState.INVALID:
            self.stats.invalidations_received += 1
        for fn in self.after_invalidate:
            fn(line)
        return prior

    def flush_range(self, addr: int, nbytes: int) -> list[tuple[int, LineState]]:
        """Invalidate every line overlapping ``[addr, addr+nbytes)``.

        Used by the DMA engine to keep the *local* cache consistent
        with local memory around a bulk transfer. Returns the
        ``(line, prior_state)`` pairs dropped.
        """
        from repro.memory.address import line_range

        dropped = []
        for line in line_range(addr, nbytes, self.line_size):
            prior = self._lines.pop(line, LineState.INVALID)
            if prior is not LineState.INVALID:
                dropped.append((line, prior))
        for fn in self.after_flush_range:
            fn(dropped)
        return dropped

    def resident_lines(self) -> list[int]:
        return list(self._lines)

    def register_metrics(self, reg, **labels) -> None:
        """Register this cache's instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "cache", **labels}
        for name in ("hits", "misses", "evictions", "writebacks",
                     "invalidations_received", "upgrades"):
            reg.counter(f"cache.{name}", lambda n=name: getattr(s, n), **labels)
        reg.gauge("cache.hit_rate", lambda: s.hit_rate, **labels)
        reg.gauge("cache.resident_lines", lambda: len(self._lines), **labels)

    def __len__(self) -> int:
        return len(self._lines)
