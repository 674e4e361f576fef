"""§4.2 barrier experiment: SM combining tree vs MP combining tree.

Paper (64 processors): best shared-memory barrier (six-level binary
tree) ≈1650 cycles (50 µs); direct message-based barrier (two-level
eight-ary tree) ≈660 cycles (20 µs).
"""

from __future__ import annotations

from repro.analysis.metrics import cycles_to_usec
from repro.analysis.tables import ExperimentResult
from repro.experiments.common import make_machine, sweep_map
from repro.perf.sweep import SweepPoint
from repro.proc.effects import Compute
from repro.runtime.barrier import MPTreeBarrier, SMTreeBarrier
from repro.sim.engine import SimulationError

PAPER_CYCLES = {"shared-memory (binary tree)": 1650, "message-passing (8-ary tree)": 660}


def measure_barrier(make_barrier, n_nodes: int = 64, episodes: int = 4) -> int:
    """Steady-state barrier latency: last-entry to last-release of the
    final episode (earlier episodes warm caches / handler state).
    Raises if any node never left the final episode."""
    m = make_machine(n_nodes)
    barrier = make_barrier(m)
    enters: dict[int, list[int]] = {}
    leaves: dict[int, list[int]] = {}

    def participant(node: int):
        for ep in range(episodes):
            enters.setdefault(ep, []).append(m.sim.now)
            yield from barrier.enter(node)
            leaves.setdefault(ep, []).append(m.sim.now)
            yield Compute(1)

    for node in range(n_nodes):
        m.processor(node).run_thread(participant(node))
    m.run()
    last = episodes - 1
    left = len(leaves.get(last, ()))
    if left != n_nodes:
        raise SimulationError(f"barrier hung: {left}/{n_nodes} released")
    return max(leaves[last]) - max(enters[last])


def measure_point(impl: str, n_nodes: int, episodes: int) -> int:
    """One sweep point: ``impl`` is "sm" or "mp" (picklable descriptor)."""
    if impl == "sm":
        return measure_barrier(lambda m: SMTreeBarrier(m, arity=2), n_nodes, episodes)
    return measure_barrier(lambda m: MPTreeBarrier(m, fanout=8), n_nodes, episodes)


def sweep(n_nodes: int = 64, episodes: int = 4) -> list[SweepPoint]:
    """The experiment as data: one independent point per implementation."""
    return [
        SweepPoint(
            "repro.experiments.barrier_exp:measure_point",
            {"impl": impl, "n_nodes": n_nodes, "episodes": episodes},
        )
        for impl in ("sm", "mp")
    ]


def run(n_nodes: int = 64, episodes: int = 4, jobs: int = 1) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="barrier",
        title=f"§4.2 combining-tree barrier, {n_nodes} processors",
        columns=["implementation", "cycles", "usec", "paper_cycles"],
        notes="steady-state episode; paper: 1650 vs 660 cycles on 64 procs",
    )
    sm, mp = sweep_map(sweep(n_nodes, episodes), jobs)
    for name, cycles in (
        ("shared-memory (binary tree)", sm),
        ("message-passing (8-ary tree)", mp),
    ):
        res.add(
            implementation=name,
            cycles=cycles,
            usec=round(cycles_to_usec(cycles), 1),
            paper_cycles=PAPER_CYCLES[name] if n_nodes == 64 else "-",
        )
    return res
