"""``jacobi`` (paper §4.6, Fig. 11): block-partitioned Jacobi SOR.

The G x G grid is partitioned into square blocks, one per processor
(mapped onto the machine mesh so grid neighbours are mesh
neighbours). Each iteration a node (1) writes its four edges, (2)
exchanges edges with its neighbours, and (3) relaxes its block.

Interior arithmetic is identical in both variants and is charged as a
single Compute per iteration (``POINT_COST`` cycles/point) with the
actual numerics done in numpy — only the *communication* differs,
which is precisely the comparison Fig. 11 makes:

* Shared-memory variant: neighbours read my edge arrays with plain
  coherent loads (no prefetching, per the paper); my next-iteration
  edge writes pay invalidation traffic.
* Message-passing variant: each edge is pushed to the neighbour's
  halo buffer with the §4.4 bulk-transfer mechanism.

Numeric results of both variants are bit-identical to a sequential
numpy reference (see tests).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Generator

import numpy as np

from repro.machine.machine import Machine
from repro.proc.effects import (
    Compute,
    ComputeLoad,
    Poll,
    StoreRelease,
    StoreRun,
)
from repro.runtime.bulk import BulkTransfer
from repro.runtime.reduce import MPTreeReduce

#: cycles per grid-point relaxation (loads from cache + FP blend)
POINT_COST = 8
#: directions, with (dx, dy) in block coordinates
DIRS = {"N": (0, -1), "S": (0, 1), "W": (-1, 0), "E": (1, 0)}
_OPP = {"N": "S", "S": "N", "W": "E", "E": "W"}


def initial_grid(g: int) -> np.ndarray:
    """Deterministic initial condition: hot west edge, cold elsewhere."""
    grid = np.zeros((g, g), dtype=np.float64)
    grid[:, 0] = 100.0
    grid[0, :] = np.linspace(100.0, 0.0, g)
    return grid


def reference_jacobi(grid: np.ndarray, iters: int, omega: float = 0.9) -> np.ndarray:
    """Sequential numpy reference (fixed Dirichlet boundary)."""
    cur = grid.astype(np.float64).copy()
    for _ in range(iters):
        nxt = cur.copy()
        nxt[1:-1, 1:-1] = (1.0 - omega) * cur[1:-1, 1:-1] + (omega / 4.0) * (
            cur[:-2, 1:-1] + cur[2:, 1:-1] + cur[1:-1, :-2] + cur[1:-1, 2:]
        )
        cur = nxt
    return cur


@dataclass
class _NodeState:
    """Per-node block plus simulated-memory addresses for its edges."""

    bx: int
    by: int
    block: np.ndarray  # (B+2, B+2) with halo ring
    edge_addr: dict[str, tuple] = field(default_factory=dict)  # my edges (others read)
    halo_addr: dict[str, tuple] = field(default_factory=dict)  # MP: incoming halo buffers
    flag_addr: dict[str, int] = field(default_factory=dict)  # SM: edge-ready flags
    neighbors: dict[str, int] = field(default_factory=dict)  # dir -> node id


class JacobiApp:
    """Distributed Jacobi SOR on a Machine; drive with :meth:`node_thread`."""

    def __init__(
        self,
        machine: Machine,
        grid_size: int,
        iters: int,
        mode: str = "sm",
        omega: float = 0.9,
        converge_eps: float | None = None,
    ) -> None:
        """``iters`` bounds the iteration count; with ``converge_eps``
        set, nodes additionally all-reduce their residual each
        iteration (a real solver's stopping test) and stop early once
        the global max-residual drops below eps."""
        if mode not in ("sm", "mp"):
            raise ValueError(f"mode must be 'sm' or 'mp', got {mode!r}")
        self.machine = machine
        self.mode = mode
        self.iters = iters
        self.omega = omega
        self.converge_eps = converge_eps
        mesh = machine.mesh
        self.px, self.py = mesh.width, mesh.height
        if grid_size % self.px or grid_size % self.py:
            raise ValueError(
                f"grid {grid_size} not divisible by mesh {self.px}x{self.py}"
            )
        self.g = grid_size
        self.bx_size = grid_size // self.px
        self.by_size = grid_size // self.py
        if self.bx_size != self.by_size:
            raise ValueError("non-square blocks unsupported (use a square mesh)")
        self.b = self.bx_size
        self.grid0 = initial_grid(grid_size)

        self.states: list[_NodeState] = []
        for node in range(machine.n_nodes):
            c = mesh.coord(node)
            st = _NodeState(bx=c.x, by=c.y, block=self._init_block(c.x, c.y))
            for d, (dx, dy) in DIRS.items():
                nx, ny = c.x + dx, c.y + dy
                if 0 <= nx < self.px and 0 <= ny < self.py:
                    st.neighbors[d] = ny * self.px + nx
            for d in st.neighbors:
                # Edge and halo buffers are double-buffered by
                # iteration parity: a fast neighbour may produce
                # iteration t+1 before this node finished consuming
                # iteration t.
                st.edge_addr[d] = (
                    machine.alloc(node, self.b * 8),
                    machine.alloc(node, self.b * 8),
                )
                st.halo_addr[d] = (
                    machine.alloc(node, self.b * 8),
                    machine.alloc(node, self.b * 8),
                )
                # SM neighbour sync: "my edge for direction d is ready
                # up to iteration <value>" (homed here; neighbour spins)
                st.flag_addr[d] = machine.alloc(node, 8)
            self.states.append(st)

        self.bulk = BulkTransfer(machine) if mode == "mp" else None
        self.reduce = (
            MPTreeReduce(machine, max, fanout=8)
            if converge_eps is not None and machine.n_nodes > 1
            else None
        )
        self.converged_at: int | None = None
        self._iter_done: list[int] = [0] * machine.n_nodes

    # ------------------------------------------------------------------
    def _init_block(self, bx: int, by: int) -> np.ndarray:
        b = self.g // self.px
        blk = np.zeros((b + 2, b + 2), dtype=np.float64)
        blk[1:-1, 1:-1] = self.grid0[
            by * b : (by + 1) * b, bx * b : (bx + 1) * b
        ]
        return blk

    def _edge_values(self, st: _NodeState, d: str) -> np.ndarray:
        """My outgoing edge in direction ``d`` (row-index = y)."""
        if d == "N":
            return st.block[1, 1:-1]
        if d == "S":
            return st.block[-2, 1:-1]
        if d == "W":
            return st.block[1:-1, 1]
        return st.block[1:-1, -2]

    def _set_halo(self, st: _NodeState, d: str, values: np.ndarray) -> None:
        """Install the neighbour's edge as my halo in direction ``d``."""
        if d == "N":
            st.block[0, 1:-1] = values
        elif d == "S":
            st.block[-1, 1:-1] = values
        elif d == "W":
            st.block[1:-1, 0] = values
        else:
            st.block[1:-1, -1] = values

    def _relax(self, st: _NodeState) -> float:
        blk = st.block
        new = blk.copy()
        new[1:-1, 1:-1] = (1.0 - self.omega) * blk[1:-1, 1:-1] + (self.omega / 4.0) * (
            blk[:-2, 1:-1] + blk[2:, 1:-1] + blk[1:-1, :-2] + blk[1:-1, 2:]
        )
        # Dirichlet condition: cells on the *global* boundary stay fixed
        if st.by == 0:
            new[1, 1:-1] = blk[1, 1:-1]
        if st.by == self.py - 1:
            new[-2, 1:-1] = blk[-2, 1:-1]
        if st.bx == 0:
            new[1:-1, 1] = blk[1:-1, 1]
        if st.bx == self.px - 1:
            new[1:-1, -2] = blk[1:-1, -2]
        residual = float(np.abs(new[1:-1, 1:-1] - blk[1:-1, 1:-1]).max())
        st.block = new
        return residual

    # ------------------------------------------------------------------
    # The per-node SPMD thread
    # ------------------------------------------------------------------
    def node_thread(self, node: int) -> Generator:
        st = self.states[node]
        for it in range(self.iters):
            parity = it & 1
            # 1. publish my edges (identical cost in both variants)
            for d in st.neighbors:
                vals = self._edge_values(st, d)
                yield StoreRun(st.edge_addr[d][parity], [float(v) for v in vals])
            # 2. exchange
            if self.mode == "sm":
                yield from self._exchange_sm(node, st, it)
            else:
                yield from self._exchange_mp(node, st, it)
            # 3. relax
            yield Compute(self.b * self.b * POINT_COST)
            residual = self._relax(st)
            self._iter_done[node] = it + 1
            # 4. optional global convergence test (max-residual
            #    all-reduce — synchronization and data in one tree)
            if self.converge_eps is not None:
                if self.reduce is not None:
                    residual = yield from self.reduce.reduce(node, residual, max)
                if residual < self.converge_eps:
                    if node == 0:
                        self.converged_at = it + 1
                    break
        return float(np.sum(st.block[1:-1, 1:-1]))

    def _exchange_sm(self, node: int, st: _NodeState, it: int) -> Generator:
        """Neighbour flag sync: announce my edges, spin on each
        neighbour's flag, read its edge array with coherent loads.

        Double-buffered edges make a global barrier unnecessary: by
        the time I overwrite my parity-p edge at iteration t+2, every
        neighbour has necessarily consumed iteration t (it could not
        have produced its t+1 edge otherwise).
        """
        parity = it & 1
        for d in st.neighbors:
            yield StoreRelease(st.flag_addr[d], it + 1)
        for d, nbr in st.neighbors.items():
            nbr_st = self.states[nbr]
            yield Poll(8, None, partial(operator.le, it + 1),
                       (nbr_st.flag_addr[_OPP[d]],))
            base = nbr_st.edge_addr[_OPP[d]][parity]
            vals = yield from self._read_edge(base)
            self._set_halo(st, d, vals)

    def _exchange_mp(self, node: int, st: _NodeState, it: int) -> Generator:
        # push my edges into the neighbours' halo buffers
        parity = it & 1
        for d, nbr in st.neighbors.items():
            dst = self.states[nbr].halo_addr[_OPP[d]][parity]
            cid = self._cid(node, d, it)
            yield from self.bulk.send(
                nbr, st.edge_addr[d][parity], dst, self.b * 8, copy_id=cid
            )
        # await my halos and read them out of local memory
        for d, nbr in st.neighbors.items():
            cid = self._cid(nbr, _OPP[d], it)
            yield from self.bulk.arrival_future(cid).wait()
            base = st.halo_addr[d][parity]
            vals = yield from self._read_edge(base)
            self._set_halo(st, d, vals)

    def _read_edge(self, base: int) -> Generator:
        """Read one b-element edge/halo array with coherent loads."""
        raw = yield ComputeLoad(base, self.b)
        return np.asarray(raw, dtype=np.float64)

    def _cid(self, src_node: int, d: str, it: int) -> int:
        """Deterministic copy id for (sender, direction, iteration)."""
        return -(((it * self.machine.n_nodes + src_node) * 8) + "NSWE".index(d) + 1)

    # ------------------------------------------------------------------
    def run(self) -> tuple[np.ndarray, int]:
        """Run all node threads; returns (final grid, total cycles)."""
        m = self.machine
        t0 = m.sim.now
        for node in range(m.n_nodes):
            m.processor(node).run_thread(self.node_thread(node))
        m.run()
        cycles = m.sim.now - t0
        return self.assemble_grid(), cycles

    def assemble_grid(self) -> np.ndarray:
        out = np.zeros((self.g, self.g), dtype=np.float64)
        for node, st in enumerate(self.states):
            b = self.b
            out[st.by * b : (st.by + 1) * b, st.bx * b : (st.bx + 1) * b] = st.block[
                1:-1, 1:-1
            ]
        return out

    def cycles_per_iteration(self, total_cycles: int) -> float:
        return total_cycles / self.iters
