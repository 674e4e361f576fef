"""Coherence-invariant sanitizer.

Validates that the per-node caches and the home directories agree —
live, on every protocol transition, and again at quiescence. The
checked invariants are the ones the protocol is supposed to maintain
(and that ``tests/test_properties.py`` spot-checks after the fact):

* **SWMR** — at most one node holds a line MODIFIED/EXCLUSIVE.
* **directory entry consistency** — after every directory mutation
  the entry satisfies :meth:`DirEntry.well_formed` (UNOWNED ⇒ no sharers
  and no owner; SHARED ⇒ sharers non-empty, no owner; EXCLUSIVE ⇒
  owner set, no sharers). This stays true across LimitLESS pointer
  overflow: the software-extended sharer list obeys the same shape.
* **quiescence agreement** — when the machine has quiesced, every
  M/E line is EXCLUSIVE at its home with the right owner and every
  SHARED copy appears in its home's sharer set. (The directory *may*
  track extra, stale sharers — silent evictions never inform home —
  so only the cache→directory direction is checked.)
* **protocol quiescence** — no in-flight transactions (MSHRs), busy
  lines, or queued protocol work survive the run.

The live SWMR check keeps an incremental ``line -> owner nodes``
index updated from the caches' fill/set_state/invalidate/flush probes
(:mod:`repro.sim.probe`). Silent LRU evictions fire none of them, so
the index is only a *pre-filter*: an apparent violation is re-verified
against the actual cache states and stale entries are pruned before
reporting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.check.report import Finding
from repro.memory.address import home_of
from repro.memory.cache import LineState
from repro.memory.directory import Directory, DirState
from repro.sim.probe import Subscriptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

_OWNING = (LineState.MODIFIED, LineState.EXCLUSIVE)


class CoherenceSanitizer:
    """Directory/cache agreement checker for one machine."""

    name = "coherence"

    def __init__(self, machine: "Machine", emit: Callable[[Finding], None]) -> None:
        self.machine = machine
        self._emit = emit
        self._subs = Subscriptions()
        #: line -> nodes believed to hold it M/E (pre-filter index)
        self._owners: dict[int, set[int]] = {}
        self._seen: set[tuple] = set()
        self._attach()

    # ------------------------------------------------------------------
    def _attach(self) -> None:
        sub = self._subs.add
        for node_obj in self.machine.nodes:
            cache = node_obj.cache
            directory = node_obj.directory
            node = node_obj.node_id

            def note_state(line, state, node=node):
                self._note_state(line, node, state)

            def flushed(dropped, node=node):
                for line, _prior in dropped:
                    self._drop(line, node)

            def mutated(line, directory=directory, node=node):
                self._check_entry(directory, line, node)

            sub(cache, "after_fill", note_state)
            sub(cache, "after_set_state", note_state)
            sub(cache, "after_invalidate", lambda line, node=node: self._drop(line, node))
            sub(cache, "after_flush_range", flushed)
            for point in Directory.PROBES:
                sub(directory, point, mutated)

    def detach(self) -> None:
        self._subs.clear()

    # ------------------------------------------------------------------
    # Live checks
    # ------------------------------------------------------------------
    def _note_state(self, line: int, node: int, state: LineState) -> None:
        if state in _OWNING:
            holders = self._owners.setdefault(line, set())
            holders.add(node)
            if len(holders) > 1:
                self._verify_swmr(line, holders)
        else:
            self._drop(line, node)

    def _drop(self, line: int, node: int) -> None:
        holders = self._owners.get(line)
        if holders is not None:
            holders.discard(node)
            if not holders:
                del self._owners[line]

    def _verify_swmr(self, line: int, holders: set[int]) -> None:
        """Re-verify an apparent multi-owner line against the actual
        cache states; silent LRU evictions leave stale index entries."""
        nodes = self.machine.nodes
        stale = [n for n in holders if nodes[n].cache.state(line) not in _OWNING]
        holders.difference_update(stale)
        if len(holders) > 1:
            key = ("swmr", line, frozenset(holders))
            if key in self._seen:
                return
            self._seen.add(key)
            self._emit(Finding(
                checker=self.name,
                kind="multiple-owners",
                time=self.machine.sim.now,
                node=min(holders),
                addr=line,
                message=(
                    f"line {line:#x} held MODIFIED/EXCLUSIVE by nodes "
                    f"{sorted(holders)} simultaneously"
                ),
            ))

    def _check_entry(self, directory, line: int, home: int) -> None:
        e = directory.peek(line)
        if e is None:  # pragma: no cover - mutators create the entry
            return
        if not e.well_formed():
            key = ("entry", home, line)
            if key in self._seen:
                return
            self._seen.add(key)
            self._emit(Finding(
                checker=self.name,
                kind="directory-inconsistent",
                time=self.machine.sim.now,
                node=home,
                addr=line,
                message=(
                    f"directory entry for line {line:#x} inconsistent: "
                    f"state={e.state.value} sharers={sorted(e.sharers)} "
                    f"owner={e.owner}"
                ),
            ))

    # ------------------------------------------------------------------
    # Quiescence sweep
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        machine = self.machine
        now = machine.sim.now
        owners_by_line: dict[int, list[int]] = {}
        for node_obj in machine.nodes:
            cache = node_obj.cache
            for line in cache.resident_lines():
                st = cache.state(line)
                home = machine.nodes[home_of(line)]
                entry = home.directory.peek(line)
                if st in _OWNING:
                    owners_by_line.setdefault(line, []).append(node_obj.node_id)
                    if (
                        entry is None
                        or entry.state is not DirState.EXCLUSIVE
                        or entry.owner != node_obj.node_id
                    ):
                        self._emit(Finding(
                            checker=self.name,
                            kind="stale-dirty-line",
                            time=now,
                            node=node_obj.node_id,
                            addr=line,
                            message=(
                                f"line {line:#x} is {st.value} at node "
                                f"{node_obj.node_id} but its home directory "
                                f"says {entry.state.value if entry else 'absent'}"
                            ),
                        ))
                elif st is LineState.SHARED:
                    if entry is None or node_obj.node_id not in entry.sharers:
                        self._emit(Finding(
                            checker=self.name,
                            kind="untracked-sharer",
                            time=now,
                            node=node_obj.node_id,
                            addr=line,
                            message=(
                                f"line {line:#x} cached SHARED at node "
                                f"{node_obj.node_id} but missing from its "
                                f"home's sharer set"
                            ),
                        ))
        for line, nodes in owners_by_line.items():
            if len(nodes) > 1:
                self._emit(Finding(
                    checker=self.name,
                    kind="multiple-owners",
                    time=now,
                    node=min(nodes),
                    addr=line,
                    message=(
                        f"line {line:#x} held MODIFIED/EXCLUSIVE by nodes "
                        f"{sorted(nodes)} at quiescence"
                    ),
                ))
        coh = machine.coherence
        leftovers = []
        if any(m for m in coh._mshr.values()):
            leftovers.append("outstanding MSHR transactions")
        if coh._line_busy:
            leftovers.append(f"{len(coh._line_busy)} busy lines")
        if any(q for q in coh._line_q.values()):
            leftovers.append("queued protocol requests")
        if leftovers:
            self._emit(Finding(
                checker=self.name,
                kind="protocol-quiescence",
                time=now,
                node=0,
                message=(
                    "coherence engine did not quiesce: "
                    + ", ".join(leftovers)
                ),
            ))
