"""Node assembly: build a whole Alewife machine from a config."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.cmmu.interface import Cmmu
from repro.cmmu.message import BlockRef
from repro.params import MachineConfig
from repro.memory.address import make_addr
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceEngine
from repro.memory.directory import Directory
from repro.memory.store import BackingStore
from repro.network.fabric import Network
from repro.network.topology import Mesh2D, Torus2D
from repro.proc.effects import Send
from repro.proc.processor import HandlerFn, Processor
from repro.sim.engine import Resource, Simulator


@dataclass
class Node:
    """One Alewife node: processor + cache + directory + CMMU."""

    node_id: int
    processor: Processor
    cache: Cache
    directory: Directory
    cmmu: Cmmu


class Machine:
    """A simulated Alewife machine.

    Owns the simulator, the interconnect, the coherence engine, the
    backing store, and one :class:`Node` per processor. The runtime
    system (``repro.runtime``) layers threads, synchronization, and
    scheduling on top.
    """

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        self.sim = Simulator()
        mesh_cls = Torus2D if cfg.network.topology == "torus" else Mesh2D
        self.mesh = mesh_cls(cfg.n_nodes)
        self.network = Network(
            self.sim,
            self.mesh,
            hop_latency=cfg.network.hop_latency,
            bandwidth_bytes_per_cycle=cfg.network.bandwidth_bytes_per_cycle,
            local_loopback_latency=cfg.network.local_loopback_latency,
            injection_latency=cfg.network.injection_latency,
        )
        self.store = BackingStore()
        self.coherence = CoherenceEngine(
            self.sim, self.network, line_size=cfg.line_size, params=cfg.coherence
        )
        self.nodes: list[Node] = []
        self._heap_next: list[int] = []
        #: set by repro.runtime.Runtime so observers (metrics
        #: collection, the time-series sampler) can reach the
        #: schedulers without extra wiring
        self.runtime = None
        for nid in range(cfg.n_nodes):
            cache = Cache(nid, capacity_lines=cfg.cache_lines, line_size=cfg.line_size)
            directory = Directory(nid, hw_pointers=cfg.dir_hw_pointers)
            port = Resource(self.sim, f"mem{nid}")
            self.coherence.add_node(nid, cache, directory, port)
            cmmu = Cmmu(
                self.sim, nid, self.network, self.coherence, self.store, cfg.cmmu
            )
            proc = Processor(
                self.sim, nid, cmmu, self.coherence, self.store, cfg.processor
            )
            self.nodes.append(Node(nid, proc, cache, directory, cmmu))
            self._heap_next.append(cfg.line_size)  # keep offset 0 unused
        if cfg.coherence.limitless_trap_on_cpu:
            self.coherence.on_software_trap = self._cpu_trap

    def _cpu_trap(self, home: int, cycles: int) -> None:
        """LimitLESS software-extension handler: steal ``cycles`` of
        the home processor's time (runs at the next dispatch point,
        ahead of any ready thread)."""
        from repro.proc.effects import Compute

        def trap_body():
            yield Compute(cycles)

        self.processor(home).run_thread(
            trap_body(), label="limitless-trap", front=True
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def processor(self, node: int) -> Processor:
        return self.nodes[node].processor

    # ------------------------------------------------------------------
    # Raw message transport: the interface of repro.runtime.ReliableLayer
    # without its delivery promise, so a primitive holds either one
    # ------------------------------------------------------------------
    def register_handler(self, node: int, mtype: str, fn: HandlerFn) -> None:
        self.nodes[node].processor.register_handler(mtype, fn)

    def register_everywhere(self, mtype: str, fn: HandlerFn) -> None:
        for node in self.nodes:
            node.processor.register_handler(mtype, fn)

    def send(
        self,
        src: int | None,
        dst: int,
        mtype: str,
        operands: tuple = (),
        blocks: list[BlockRef] | None = None,
    ) -> Generator:
        """``yield from machine.send(...)`` on node ``src``: one raw
        describe/launch (the raw path itself never needs ``src``)."""
        yield Send(dst, mtype, operands=operands, blocks=blocks or [])

    def alloc(self, node: int, nbytes: int, align: int | None = None) -> int:
        """Bump-allocate ``nbytes`` of memory homed at ``node``; returns
        the global address. Always at least line-aligned so unrelated
        allocations never share a cache line (no accidental false
        sharing between runtime structures)."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        align = align or self.config.line_size
        if align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        align = max(align, self.config.line_size)
        off = (self._heap_next[node] + align - 1) & ~(align - 1)
        self._heap_next[node] = off + nbytes
        return make_addr(node, off)

    def run(self, **kw) -> int:
        """Drain the event queue (delegates to the simulator)."""
        return self.sim.run(**kw)
