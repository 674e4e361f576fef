"""Fig. 11: Jacobi SOR cycles/iteration on 64 processors, SM vs MP
border exchange, grid sizes 32x32 / 64x64 / 128x128.

Paper shape: shared-memory slightly faster at small grids (little
data per edge; Fig. 7 says SM copies small blocks cheaper), message
passing slightly faster at large grids, with the gap damped by the
growing computation-to-communication ratio.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.tables import ExperimentResult
from repro.apps.jacobi import JacobiApp, initial_grid, reference_jacobi
from repro.experiments.common import make_machine, sweep_map
from repro.perf.sweep import SweepPoint

DEFAULT_GRIDS = (32, 64, 128)


def measure_jacobi(
    mode: str, grid_size: int, n_nodes: int = 64, iters: int = 6, validate: bool = True
) -> float:
    m = make_machine(n_nodes)
    app = JacobiApp(m, grid_size=grid_size, iters=iters, mode=mode)
    grid, cycles = app.run()
    if validate:
        ref = reference_jacobi(initial_grid(grid_size), iters)
        np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=1e-12)
    return app.cycles_per_iteration(cycles)


def sweep(
    grid_sizes: Sequence[int] = DEFAULT_GRIDS, n_nodes: int = 64, iters: int = 6
) -> list[SweepPoint]:
    """The experiment as data: one independent point per (grid, mode)."""
    return [
        SweepPoint(
            "repro.experiments.fig11_jacobi:measure_jacobi",
            {"mode": mode, "grid_size": g, "n_nodes": n_nodes, "iters": iters},
        )
        for g in grid_sizes
        for mode in ("sm", "mp")
    ]


def run(
    grid_sizes: Sequence[int] = DEFAULT_GRIDS, n_nodes: int = 64, iters: int = 6,
    jobs: int = 1,
) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="fig11",
        title=f"Fig. 11: Jacobi SOR cycles/iteration, {n_nodes} processors",
        columns=["grid", "cycles_per_iter_sm", "cycles_per_iter_mp", "mp_over_sm"],
        notes="paper: SM wins small grids, MP wins large, both by small margins",
    )
    points = sweep(grid_sizes, n_nodes, iters)
    measured = dict(zip(((p.kwargs["grid_size"], p.kwargs["mode"]) for p in points),
                        sweep_map(points, jobs)))
    for g in grid_sizes:
        sm = measured[(g, "sm")]
        mp = measured[(g, "mp")]
        res.add(
            grid=f"{g}x{g}",
            cycles_per_iter_sm=round(sm),
            cycles_per_iter_mp=round(mp),
            mp_over_sm=round(mp / sm, 2),
        )
    return res
