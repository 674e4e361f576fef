"""2-D mesh topology and dimension-ordered (XY) routing.

Alewife uses a two-dimensional mesh interconnect (the paper's
prototype plan: 2-D mesh, 33 MHz nodes). Nodes are numbered row-major:
node ``i`` sits at ``(x, y) = (i % width, i // width)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Coord:
    """Mesh coordinate."""

    x: int
    y: int


class Mesh2D:
    """A ``width`` x ``height`` mesh with XY (dimension-ordered) routing.

    Links are unidirectional and identified by ``(src_node, dst_node)``
    for adjacent nodes; XY routing first corrects the X coordinate,
    then the Y coordinate, which is deadlock-free on a mesh.
    """

    def __init__(self, n_nodes: int, width: int | None = None) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if width is None:
            width = int(math.isqrt(n_nodes))
            while n_nodes % width != 0:
                width -= 1
        if width <= 0 or n_nodes % width != 0:
            raise ValueError(f"width {width} does not tile {n_nodes} nodes")
        self.n_nodes = n_nodes
        self.width = width
        self.height = n_nodes // width

    # ------------------------------------------------------------------
    def coord(self, node: int) -> Coord:
        """Coordinate of ``node`` (row-major numbering)."""
        self._check(node)
        return Coord(node % self.width, node // self.width)

    def node_at(self, coord: Coord) -> int:
        if not (0 <= coord.x < self.width and 0 <= coord.y < self.height):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height}")
        return coord.y * self.width + coord.x

    def hops(self, src: int, dst: int) -> int:
        """Links on the route from ``src`` to ``dst`` (Manhattan
        distance on the mesh)."""
        self._check(src)
        self._check(dst)
        w = self.width
        return (self._ring(src % w, dst % w, w)[1]
                + self._ring(src // w, dst // w, self.height)[1])

    def route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """XY route as a list of directed links ``(from, to)``.

        One integer walk: X first, then Y, each dimension stepping the
        way :meth:`_ring` picks. An empty list means ``src == dst``
        (local delivery; no links traversed). Not memoized: the fabric
        resolves each pair's links once (``Network.send``).
        """
        self._check(src)
        self._check(dst)
        w, h = self.width, self.height
        x, y = src % w, src // w
        x_step, x_hops = self._ring(x, dst % w, w)
        y_step, y_hops = self._ring(y, dst // w, h)
        nodes = [src]
        for _ in range(x_hops):
            x = (x + x_step) % w
            nodes.append(y * w + x)
        for _ in range(y_hops):
            y = (y + y_step) % h
            nodes.append(y * w + x)
        return list(zip(nodes, nodes[1:]))

    @staticmethod
    def _ring(cur: int, target: int, size: int) -> tuple[int, int]:
        """``(step, hops)`` from ``cur`` to ``target`` along one
        dimension of length ``size``: straight, without wraparound."""
        if target >= cur:
            return 1, target - cur
        return -1, cur - target

    def neighbors(self, node: int) -> list[int]:
        """Nodes one hop away (2-4 of them depending on position)."""
        c = self.coord(node)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = c.x + dx, c.y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append(self.node_at(Coord(nx, ny)))
        return out

    def _check(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Mesh2D {self.width}x{self.height}>"


class Torus2D(Mesh2D):
    """2-D torus: the mesh with wraparound links in both dimensions.

    Alewife's prototype used a mesh; the torus halves the network
    diameter (each dimension's distance is taken modulo around the
    ring) at the cost of the wrap wiring — a standard what-if for the
    network-sensitivity ablations.
    """

    @staticmethod
    def _ring(cur: int, target: int, size: int) -> tuple[int, int]:
        """The shorter way around the ring, forward on a tie
        (dimension-ordered routing stays deadlock-free with the usual
        virtual-channel assumption, which our timing model abstracts)."""
        fwd = (target - cur) % size
        back = (cur - target) % size
        if fwd <= back:
            return 1, fwd
        return -1, back

    def neighbors(self, node: int) -> list[int]:
        """Always four neighbours on a torus (with wraparound)."""
        c = self.coord(node)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx = (c.x + dx) % self.width
            ny = (c.y + dy) % self.height
            n = self.node_at(Coord(nx, ny))
            if n != node:
                out.append(n)
        return sorted(set(out))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Torus2D {self.width}x{self.height}>"
