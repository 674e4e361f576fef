"""Fig. 9: ``grain`` speedup on 64 processors, hybrid vs SM scheduler.

Paper (n=12, 64 processors): at l=0 speedups are 12.0 (hybrid) vs 6.3
(SM-only); at l=1000 they are 48.6 vs 36.4.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.metrics import cycles_to_msec
from repro.analysis.tables import ExperimentResult
from repro.apps.grain import grain_parallel, sequential_cycles
from repro.experiments.common import make_machine, sweep_map
from repro.perf.sweep import SweepPoint
from repro.runtime.rt import Runtime

DEFAULT_DELAYS = (0, 100, 200, 400, 600, 800, 1000)

PAPER_SPEEDUP = {
    ("hybrid", 0): 12.0,
    ("sm", 0): 6.3,
    ("hybrid", 1000): 48.6,
    ("sm", 1000): 36.4,
}


def measure_grain(kind: str, delay: int, depth: int = 12, n_nodes: int = 64, seed: int = 0):
    m = make_machine(n_nodes)
    rt = Runtime(m, scheduler=kind, seed=seed)
    result, cycles = rt.run_to_completion(
        0, lambda rt, nd: grain_parallel(rt, nd, depth, delay)
    )
    assert result == 1 << depth, "grain leaf count wrong"
    return cycles


def sweep(
    delays: Sequence[int] = DEFAULT_DELAYS, depth: int = 12, n_nodes: int = 64
) -> list[SweepPoint]:
    """The experiment as data: one independent point per (delay, scheduler)."""
    return [
        SweepPoint(
            "repro.experiments.fig9_grain:measure_grain",
            {"kind": kind, "delay": delay, "depth": depth, "n_nodes": n_nodes},
        )
        for delay in delays
        for kind in ("hybrid", "sm")
    ]


def run(
    delays: Sequence[int] = DEFAULT_DELAYS, depth: int = 12, n_nodes: int = 64,
    jobs: int = 1,
) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="fig9",
        title=f"Fig. 9: grain speedup, n={depth}, {n_nodes} processors",
        columns=[
            "delay_l",
            "seq_msec",
            "speedup_hybrid",
            "speedup_sm",
            "hybrid_over_sm",
            "paper_hybrid",
            "paper_sm",
        ],
        notes="speedup vs single-node sequential run (no scheduler overhead)",
    )
    points = sweep(delays, depth, n_nodes)
    measured = dict(zip(((p.kwargs["delay"], p.kwargs["kind"]) for p in points),
                        sweep_map(points, jobs)))
    for delay in delays:
        seq = sequential_cycles(depth, delay)
        s = {kind: seq / measured[(delay, kind)] for kind in ("hybrid", "sm")}
        res.add(
            delay_l=delay,
            seq_msec=round(cycles_to_msec(seq), 1),
            speedup_hybrid=round(s["hybrid"], 1),
            speedup_sm=round(s["sm"], 1),
            hybrid_over_sm=round(s["hybrid"] / s["sm"], 2),
            paper_hybrid=PAPER_SPEEDUP.get(("hybrid", delay), "-"),
            paper_sm=PAPER_SPEEDUP.get(("sm", delay), "-"),
        )
    return res
