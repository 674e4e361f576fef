"""Fault-injection degradation experiment.

Reruns the paper's two message-passing primitives — the Fig. 7 bulk
memcpy and the §4.2 combining-tree barrier — in *reliable* mode
(sequence numbers, acks, retransmission) on a fabric that drops a
fraction of the software packets, and reports how completion time
degrades with the loss rate.

The zero-loss row is the baseline: the reliable layer's own overhead
(per-message software cost plus the ack round) is included there, so
``slowdown_x`` isolates the cost of the *faults*, not of reliability.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.tables import ExperimentResult
from repro.experiments.barrier_exp import measure_barrier
from repro.experiments.common import make_machine, run_thread_timed, sweep_map
from repro.perf.sweep import SweepPoint
from repro.faults import FaultInjector, lossy_plan
from repro.runtime.barrier import MPTreeBarrier
from repro.runtime.bulk import BulkTransfer
from repro.runtime.reliable import ReliableLayer
from repro.sim.engine import SimulationError

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.10)


def _measure_memcpy(
    drop: float, nbytes: int, seed: int, rounds: int = 8
) -> tuple[int, int, int]:
    """Reliable-mode bulk copy under ``drop`` packet loss; returns
    (cycles, retransmits, faults_injected) and verifies the data.

    Runs ``rounds`` back-to-back transfers so enough packets are at
    risk for the loss rate to show (one copy is only ~4 packets)."""
    m = make_machine(4)
    layer = ReliableLayer(m)
    bulk = BulkTransfer(m, reliable=layer)
    FaultInjector(m, lossy_plan(drop, seed=seed))
    src = m.alloc(0, nbytes)
    dst = m.alloc(1, nbytes)
    for i in range(nbytes // 8):
        m.store.write(src + i * 8, i)

    def bench():
        t0 = m.sim.now
        for _ in range(rounds):
            yield from bulk.send(1, src, dst, nbytes, wait_ack=True, src_node=0)
        return m.sim.now - t0

    cycles, _total = run_thread_timed(m, bench())
    for i in range(nbytes // 8):
        if m.store.read(dst + i * 8) != i:
            raise SimulationError(
                f"bulk copy corrupted under drop={drop}: word {i} wrong"
            )
    return cycles, layer.stats.retransmits, m.network.stats.faults_injected


def _measure_barrier(
    drop: float, n_nodes: int, episodes: int, seed: int
) -> tuple[int, int, int]:
    """Reliable-mode MP barrier under loss; returns (cycles,
    retransmits, faults_injected), cycles being ``measure_barrier``'s
    steady-state episode latency."""
    layers = []

    def make_barrier(m):
        layer = ReliableLayer(m)
        layers.append(layer)
        barrier = MPTreeBarrier(m, fanout=8, reliable=layer)
        FaultInjector(m, lossy_plan(drop, seed=seed))
        return barrier

    cycles = measure_barrier(make_barrier, n_nodes, episodes)
    (layer,) = layers
    return cycles, layer.stats.retransmits, layer.machine.network.stats.faults_injected


def measure_point(
    workload: str, drop: float, nbytes: int, n_nodes: int, episodes: int, seed: int
) -> tuple[int, int, int]:
    """One sweep point; the fault seed travels in the descriptor, so a
    worker reproduces the exact fault schedule a serial run sees."""
    if workload == "memcpy":
        return _measure_memcpy(drop, nbytes, seed)
    return _measure_barrier(drop, n_nodes, episodes, seed)


def sweep(
    loss_rates: Sequence[float] = DEFAULT_RATES,
    nbytes: int = 2048,
    n_nodes: int = 16,
    episodes: int = 4,
    seed: int = 1,
) -> list[SweepPoint]:
    """The experiment as data: one independent point per (workload, rate)."""
    return [
        SweepPoint(
            "repro.experiments.faults_exp:measure_point",
            {"workload": w, "drop": drop, "nbytes": nbytes,
             "n_nodes": n_nodes, "episodes": episodes, "seed": seed},
        )
        for w in ("memcpy", "barrier")
        for drop in loss_rates
    ]


def run(
    loss_rates: Sequence[float] = DEFAULT_RATES,
    nbytes: int = 2048,
    n_nodes: int = 16,
    episodes: int = 4,
    # seed 0 is deterministically unlucky: Random(0)'s first ~35 draws
    # all exceed 0.1, so a short memcpy run would see zero faults
    seed: int = 1,
    jobs: int = 1,
) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="faults",
        title="Reliable MP primitives under packet loss",
        columns=["drop_pct", "workload", "cycles", "retries", "faults", "slowdown_x"],
        notes="fig7 memcpy + MP barrier in reliable mode; slowdown vs lossless row",
    )
    points = sweep(loss_rates, nbytes, n_nodes, episodes, seed)
    measured = dict(zip(((p.kwargs["workload"], p.kwargs["drop"]) for p in points),
                        sweep_map(points, jobs)))
    base: dict[str, int] = {}
    for name in ("memcpy", "barrier"):
        for drop in loss_rates:
            cycles, retries, faults = measured[(name, drop)]
            base.setdefault(name, cycles)
            res.add(
                drop_pct=round(drop * 100, 1),
                workload=name,
                cycles=cycles,
                retries=retries,
                faults=faults,
                slowdown_x=round(cycles / base[name], 2) if base[name] else 1.0,
            )
    return res
