"""Backing value store.

Timing and values are deliberately split in this simulator (see
DESIGN.md): the coherence machinery computes *when* an access
completes, while the authoritative word values live here and are
updated at store-completion time. The home directory serializes
transactions per line, so deterministic programs observe
sequentially-consistent values.

Values may be any Python object (ints for synchronization words,
floats for numeric kernels); an address with no prior store reads 0.
"""

from __future__ import annotations

from typing import Any, Iterator


class BackingStore:
    """Machine-wide word-value storage, keyed by global address."""

    def __init__(self) -> None:
        self._mem: dict[int, Any] = {}
        self.reads = 0
        self.writes = 0

    def read(self, addr: int) -> Any:
        """Value at ``addr`` (0 if never written)."""
        self.reads += 1
        return self._mem.get(addr, 0)

    def write(self, addr: int, value: Any) -> None:
        self.writes += 1
        self._mem[addr] = value

    def snapshot_range(
        self, addr: int, nbytes: int, granule: int = 4
    ) -> list[tuple[int, Any]]:
        """Capture ``(offset, value)`` pairs present in a window.

        Used by the DMA engine: data is captured at message-launch
        time, matching hardware where the source memory is read as the
        packet streams out.
        """
        if nbytes < 0:
            raise ValueError(f"negative snapshot length {nbytes}")
        out = []
        for off in range(0, nbytes, granule):
            key = addr + off
            if key in self._mem:
                out.append((off, self._mem[key]))
        return out

    def write_snapshot(
        self, addr: int, nbytes: int, snapshot: list[tuple[int, Any]], granule: int = 4
    ) -> None:
        """Deposit a snapshot at ``addr``, clearing the rest of the window."""
        if nbytes < 0:
            raise ValueError(f"negative snapshot length {nbytes}")
        for off in range(0, nbytes, granule):
            self._mem.pop(addr + off, None)
        for off, value in snapshot:
            if not (0 <= off < nbytes):
                raise ValueError(f"snapshot offset {off} outside window of {nbytes}")
            self._mem[addr + off] = value
        self.writes += len(snapshot)

    def atomically(self, addr: int, fn) -> tuple[Any, Any]:
        """Read-modify-write: ``new = fn(old)``; returns ``(old, new)``."""
        old = self._mem.get(addr, 0)
        new = fn(old)
        self._mem[addr] = new
        self.reads += 1
        self.writes += 1
        return old, new

    def __len__(self) -> int:
        return len(self._mem)

    def keys(self) -> Iterator[int]:
        return iter(self._mem)
