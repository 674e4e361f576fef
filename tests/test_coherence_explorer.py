"""Exhaustive delivery-order exploration of the coherence protocol.

The home side of the protocol is a transition table
(``repro.memory.coherence.MSI_TABLE``/``MESI_TABLE``). This test runs
the real engine of a 2- or 3-node machine through every order in
which its protocol packets can arrive, keeping each (src, dst)
channel FIFO as the fabric's per-link FIFO does:

* a holding send policy in the fabric's ``Network.faults`` slot keeps
  every packet in its channel instead of injecting it;
* at each step the explorer either runs the engine's next time bucket
  or delivers the head packet of one non-empty channel;
* each path is replayed from a fresh machine (the event queue holds
  closures, which cannot be copied).

Checked at every state: full SWMR on every line the program touches
(at most one MODIFIED/EXCLUSIVE copy, and no SHARED copy beside one)
and no live coherence-sanitizer finding. Checked at every leaf, where
no event and no packet is left: every access the program issued
completed, the sanitizer's quiescence sweep is clean, and no MSHR,
busy line or queued request is left.

The programs are tiny because the number of paths grows exponentially
with their length. Together they reach every row of both tables but
the three listed in ``UNREACHED``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import pytest

from repro.check.coherence import CoherenceSanitizer
from repro.machine import Machine, MachineConfig
from repro.memory import AccessKind, CoherenceParams, LineState, make_addr
from repro.memory.coherence import (
    MESI_TABLE, MSI_TABLE, CoherenceEngine, Request, Seen,
)

R, W, P = AccessKind.READ, AccessKind.WRITE, AccessKind.PREFETCH
#: lines homed at node 0 (A, A2) and node 1 (B)
A, A2, B = make_addr(0, 0x100), make_addr(0, 0x200), make_addr(1, 0x100)

TICK = "tick"
#: a longer path is reported as a livelock
MAX_DEPTH = 400
_OWNING = (LineState.MODIFIED, LineState.EXCLUSIVE)


@dataclass
class Case:
    n_nodes: int
    #: per node, the accesses it issues one after another
    programs: tuple
    params: dict = field(default_factory=dict)
    cache_lines: int = 4096


class _Hold:
    """Send policy that keeps every packet in its (src, dst) channel."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.channels: dict[tuple[int, int], deque] = {}

    def route(self, packet) -> int:
        self.channels.setdefault((packet.src, packet.dst), deque()).append(packet)
        return self.sim.now


class _Rows(dict):
    """A protocol table that records every row looked up in it."""

    def __init__(self, table: dict, reached: set) -> None:
        super().__init__(table)
        self.reached = reached

    def __getitem__(self, key):
        row = super().__getitem__(key)
        self.reached.add((key, row))
        return row


class World:
    """One machine running one case, advanced along one path."""

    def __init__(self, case: Case, reached: set) -> None:
        self.case = case
        self.m = m = Machine(MachineConfig(
            n_nodes=case.n_nodes,
            cache_lines=case.cache_lines,
            coherence=CoherenceParams(**case.params),
        ))
        m.coherence.table = _Rows(m.coherence.table, reached)
        self.hold = m.network.faults = _Hold(m.sim)
        self.findings: list = []
        self.sanitizer = CoherenceSanitizer(m, self.findings.append)
        self.completed = [0] * case.n_nodes
        self.lines = sorted({a & ~15 for prog in case.programs for _, a in prog})
        for node in range(case.n_nodes):
            self._issue(node)

    def _issue(self, node: int) -> None:
        prog = self.case.programs[node]
        if self.completed[node] == len(prog):
            return
        kind, addr = prog[self.completed[node]]

        def done() -> None:
            self.completed[node] += 1
            self._issue(node)

        self.m.coherence.access(node, addr, kind, done)

    def choices(self) -> list:
        out = [TICK] if self.m.sim.next_model_time() is not None else []
        out.extend(k for k in sorted(self.hold.channels) if self.hold.channels[k])
        return out

    def step(self, choice) -> None:
        sim = self.m.sim
        if choice == TICK:
            sim.run(until=sim.next_model_time())
        else:
            packet = self.hold.channels[choice].popleft()
            self.m.network._sinks[packet.dst](packet)

    def state_problem(self) -> str | None:
        caches = [node.cache for node in self.m.nodes]
        for line in self.lines:
            states = [c.state(line) for c in caches]
            owners = [n for n, s in enumerate(states) if s in _OWNING]
            sharers = [n for n, s in enumerate(states) if s is LineState.SHARED]
            if len(owners) > 1 or (owners and sharers):
                return (f"SWMR broken on line {line:#x}: owners {owners}, "
                        f"sharers {sharers}")
        return self._finding()

    def leaf_problem(self) -> str | None:
        issued = [len(p) for p in self.case.programs]
        if self.completed != issued:
            return f"accesses completed {self.completed} of {issued}"
        self.sanitizer.finalize()
        coh = self.m.coherence
        if any(coh._mshr.values()) or coh._line_busy or coh._line_q:
            return "an MSHR, busy line or queued request is left"
        return self._finding()

    def _finding(self) -> str | None:
        if self.findings:
            f = self.findings[0]
            return f"sanitizer {f.kind}: {f.message}"
        return None


def explore(case: Case, reached: set) -> tuple[int, list]:
    """Visit every state reachable from ``case``'s start; return the
    number of states and the problems found, each with its path."""
    states = 0
    problems: list = []

    def visit(world: World, path: list) -> None:
        nonlocal states
        states += 1
        problem = world.state_problem()
        choices = world.choices()
        if problem is None and not choices:
            problem = world.leaf_problem()
        if problem is None and len(path) >= MAX_DEPTH:
            problem = f"no quiescence within {MAX_DEPTH} steps"
        if problem is not None:
            problems.append((problem, path))
            return
        for i, choice in enumerate(choices):
            if i:
                world = World(case, reached)
                for earlier in path:
                    world.step(earlier)
            world.step(choice)
            visit(world, path + [choice])

    visit(World(case, reached), [])
    return states, problems


MESI = {"mesi": True}
UPGRADE = {"upgrade_optimization": True}

CASES = {
    # DESIGN.md §6, the reply/forward race: the remote node's read
    # forwards to the home's own copy before the home's fill of its
    # write lands; the forward must wait for that fill
    "reply_forward_race": Case(2, (((W, A), (R, A)), ((R, A), (W, A)))),
    # DESIGN.md §6, the queued-deferral deadlock: an invalidation
    # reaches a sharer whose own write is still queued at the home; it
    # must apply at once, not wait for that write's reply
    "queued_deferral": Case(
        2, (((R, A), (W, A), (R, A)), ((W, A), (R, A), (W, A)))),
    # forwards to a remote owner, invalidation of two sharers
    "three_party": Case(3, (((R, A), (W, A)), ((R, A),), ((W, A),))),
    "prefetch": Case(2, (((P, B), (W, B), (R, B)), ((W, B), (P, B), (R, B)))),
    # one-line caches: eviction writebacks queue behind the transaction
    # that took the line away
    "writebacks": Case(
        2, (((R, A), (W, A)), ((W, A), (W, B))), cache_lines=1),
    "writebacks_three_party": Case(
        3, (((R, A),), ((W, A), (W, B)), ((W, A),)), cache_lines=1),
    "mesi": Case(2, (((R, A), (W, A), (R, A)), ((R, A), (W, A), (R, A))), MESI),
    "mesi_three_party": Case(
        3, (((R, A),), ((R, A), (W, A)), ((R, A),)), MESI),
    # a silently dropped EXCLUSIVE copy leaves stale ownership behind
    "mesi_stale_owner": Case(
        2, (((R, B), (R, A), (R, B), (R, A), (W, B)), ((R, A),)), MESI,
        cache_lines=1),
    "upgrade": Case(
        2, (((R, A), (W, A), (R, A)), ((R, A), (W, A), (R, A))), UPGRADE),
    # an upgrade whose copy an earlier-queued writer took runs as a write
    "upgrade_lost_copy": Case(
        3, (((W, A),), ((R, A), (W, A)), ((R, A),)), UPGRADE),
    "mesi_upgrade": Case(
        2, (((R, A), (W, A), (R, A)), ((R, A), (W, A), (R, A))),
        {**MESI, **UPGRADE}),
}

#: Rows no case reaches. A writer that takes an upgrader's copy away
#: is granted only after the upgrader's invalidation ack, which follows
#: the upgrade request on the same channel: the upgrade is already
#: queued and runs before that writer can write the line back (so not
#: UNOWNED), and the upgrader never owns the line it upgrades. Likewise
#: an evicted owner's writeback reaches the home ahead of the ack that
#: hands its line on, so no later owner has written it back first.
UNREACHED = {
    (Request.UPGRADE, Seen.UNOWNED),
    (Request.UPGRADE, Seen.SELF_OWNED),
    (Request.WRITEBACK, Seen.UNOWNED),
}


@pytest.fixture(scope="module")
def explored():
    """Each case explored once per module: name -> (states, problems,
    rows reached)."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            reached: set = set()
            cache[name] = (*explore(CASES[name], reached), reached)
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_delivery_order_is_coherent(name, explored):
    states, problems, _ = explored(name)
    assert not problems, (
        f"{name}: {len(problems)} problem(s) in {states} states; first: "
        f"{problems[0][0]} after {problems[0][1]}"
    )
    assert states > 1


def test_cases_reach_every_row(explored):
    reached = set().union(*(explored(name)[2] for name in CASES))
    rows = {(key, row) for table in (MSI_TABLE, MESI_TABLE)
            for key, row in table.items() if key not in UNREACHED}
    assert rows - reached == set()
    assert {key for key, _ in reached} & UNREACHED == set()


def _never_defer(self, node, line, action):
    action()


def _defer_while_queued(self, node, line, action):
    txn = self._mshr[node].get(line)
    if txn is not None:
        txn.post_fill.append(action)
    else:
        action()


@pytest.mark.parametrize("name,broken,symptom", [
    # a forward lands before the fill it overtook: S beside M
    ("reply_forward_race", _never_defer, "SWMR broken"),
    # the sharer waits for the reply queued behind its own ack: deadlock
    ("queued_deferral", _defer_while_queued, "accesses completed"),
])
def test_case_catches_its_race(name, broken, symptom, monkeypatch):
    """Each DESIGN.md §6 race fails its case once ``_apply_or_defer``
    gets it wrong."""
    monkeypatch.setattr(CoherenceEngine, "_apply_or_defer", broken)
    _states, problems = explore(CASES[name], set())
    assert problems and all(symptom in p for p, _path in problems)
