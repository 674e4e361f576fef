#!/usr/bin/env python3
"""Heat diffusion with block-partitioned Jacobi SOR (paper §4.6).

A 64x64 plate with a hot west edge relaxes on a 16-node (4x4 mesh)
Alewife, exchanging block borders either through coherent shared
memory or with bulk-transfer messages. Both produce bit-identical
grids, validated against a sequential numpy reference.

Run:  python examples/heat_diffusion.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.analysis.metrics import cycles_to_usec
from repro.apps.jacobi import JacobiApp, initial_grid, reference_jacobi

GRID = 64
ITERS = 10


def main() -> None:
    ref = reference_jacobi(initial_grid(GRID), ITERS)
    print(f"{GRID}x{GRID} plate, {ITERS} iterations, 16 processors\n")

    for mode, label in (("sm", "shared-memory"), ("mp", "message-passing")):
        m = Machine(MachineConfig(n_nodes=16))
        app = JacobiApp(m, grid_size=GRID, iters=ITERS, mode=mode)
        grid, cycles = app.run()
        np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=1e-12)
        usec = cycles_to_usec(cycles)
        print(
            f"  {label:>15} exchange: {app.cycles_per_iteration(cycles):>7,.0f} "
            f"cycles/iter ({usec:,.0f} usec total) — matches numpy exactly"
        )

    print(
        "\nTemperature near the hot west edge after relaxation"
        " (rows 30-33, columns 0-5):"
    )
    c = GRID // 2
    with np.printoptions(precision=2, suppress=True):
        print(ref[c - 2 : c + 2, 0:6])
    print(
        "\nPer Fig. 11: with this much computation per border byte the"
        "\ntwo exchange mechanisms are close; the balance tips with the"
        "\ngrid size (SM for small borders, messages for large)."
    )


if __name__ == "__main__":
    main()
