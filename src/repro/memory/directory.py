"""LimitLESS-style cache-coherence directory (one per home node).

Each home node tracks, per cache line, which nodes hold copies. Real
Alewife keeps a small number of hardware pointers per entry
(LimitLESS [Chaiken et al., ASPLOS'91]); when more sharers exist the
CMMU traps to software which maintains the full sharer list. We keep
the full set in Python and charge a software-extension penalty
whenever an operation touches an entry whose sharer count exceeds the
hardware pointer limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DirState(enum.Enum):
    UNOWNED = "unowned"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass(slots=True)
class DirEntry:
    state: DirState = DirState.UNOWNED
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None

    def well_formed(self) -> bool:
        """True when the entry's shape fits its state: UNOWNED has no
        sharers and no owner, SHARED has sharers and no owner,
        EXCLUSIVE has an owner and no sharers."""
        if self.state is DirState.UNOWNED:
            return not self.sharers and self.owner is None
        if self.state is DirState.SHARED:
            return bool(self.sharers) and self.owner is None
        return self.owner is not None and not self.sharers


@dataclass(slots=True)
class DirectoryStats:
    lookups: int = 0
    software_traps: int = 0  # LimitLESS pointer-overflow handler entries
    invalidations_sent: int = 0
    forwards: int = 0


class Directory:
    """Directory for all lines homed at ``node``."""

    #: probe points (repro.sim.probe): each fires with (line,) once its
    #: mutator has run
    PROBES = ("after_add_sharer", "after_set_exclusive", "after_clear",
              "after_drop_sharer")
    __slots__ = ("node", "hw_pointers", "_entries", "stats", *PROBES)

    def __init__(self, node: int, hw_pointers: int = 5) -> None:
        if hw_pointers < 1:
            raise ValueError(f"need at least one hardware pointer, got {hw_pointers}")
        self.node = node
        self.hw_pointers = hw_pointers
        self._entries: dict[int, DirEntry] = {}
        self.stats = DirectoryStats()
        for point in self.PROBES:
            setattr(self, point, ())

    def entry(self, line: int) -> DirEntry:
        self.stats.lookups += 1
        e = self._entries.get(line)
        if e is None:
            e = DirEntry()
            self._entries[line] = e
        return e

    def peek(self, line: int) -> DirEntry | None:
        """Entry without creating or counting a lookup (tests/diagnostics)."""
        return self._entries.get(line)

    # ------------------------------------------------------------------
    # State transitions. These mutate bookkeeping only; the coherence
    # engine decides what messages to send and charges the timing.
    # ------------------------------------------------------------------
    def overflowed(self, entry: DirEntry) -> bool:
        """True when the sharer set no longer fits the hardware pointers."""
        return len(entry.sharers) > self.hw_pointers

    # The mutators below inline ``entry()`` (including its
    # ``stats.lookups`` bump, so counts are unchanged) — they run once
    # or more per protocol transaction and the extra call showed up in
    # profiles.

    def add_sharer(self, line: int, node: int) -> bool:
        """Record a read copy at ``node``; True if this overflows hardware.

        Must not be called while the entry is EXCLUSIVE — the engine
        resolves exclusivity (writeback) first.
        """
        self.stats.lookups += 1
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        if e.state is DirState.EXCLUSIVE:
            raise ValueError(f"line {line:#x} is EXCLUSIVE; resolve ownership first")
        e.sharers.add(node)
        e.state = DirState.SHARED
        e.owner = None
        overflow = len(e.sharers) > self.hw_pointers
        if overflow:
            self.stats.software_traps += 1
        for fn in self.after_add_sharer:
            fn(line)
        return overflow

    def set_exclusive(self, line: int, node: int) -> None:
        self.stats.lookups += 1
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        e.state = DirState.EXCLUSIVE
        e.owner = node
        e.sharers.clear()
        for fn in self.after_set_exclusive:
            fn(line)

    def clear(self, line: int) -> None:
        """Return the line to UNOWNED (after writeback/invalidation)."""
        self.stats.lookups += 1
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        e.state = DirState.UNOWNED
        e.owner = None
        e.sharers.clear()
        for fn in self.after_clear:
            fn(line)

    def drop_sharer(self, line: int, node: int) -> None:
        self.stats.lookups += 1
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = DirEntry()
        e.sharers.discard(node)
        if not e.sharers and e.state is DirState.SHARED:
            e.state = DirState.UNOWNED
        for fn in self.after_drop_sharer:
            fn(line)

    def forget(self, line: int, node: int, entry: DirEntry) -> None:
        """Forget ``node``'s copy of ``line`` (an eviction writeback, a
        DMA flush, stale ownership): an owner's entry goes UNOWNED, a
        sharer leaves the sharer set. ``entry`` is the caller's
        ``entry(line)`` read."""
        if entry.state is DirState.EXCLUSIVE and entry.owner == node:
            self.clear(line)
        else:
            self.drop_sharer(line, node)

    def sharers_to_invalidate(self, line: int, excluding: int) -> list[int]:
        """Sharer list minus ``excluding``, in deterministic order."""
        e = self.entry(line)
        return sorted(n for n in e.sharers if n != excluding)

    def __len__(self) -> int:
        return len(self._entries)

    def register_metrics(self, reg, **labels) -> None:
        """Register this directory's instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "directory", **labels}
        for name in ("lookups", "software_traps", "invalidations_sent", "forwards"):
            reg.counter(f"dir.{name}", lambda n=name: getattr(s, n), **labels)
        reg.gauge("dir.entries", lambda: len(self._entries), **labels)
