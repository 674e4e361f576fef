"""Machine configuration: every timing knob in one validated place.

Defaults are calibrated against the absolute numbers the paper quotes
(33 MHz clock, 5-cycle message-handler entry, copy bandwidths of
Fig. 7, barrier latencies of §4.2); see DESIGN.md "calibration
anchors" and ``tests/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.coherence import CoherenceParams


@dataclass
class NetworkParams:
    """Interconnect timing and topology."""

    hop_latency: int = 2
    bandwidth_bytes_per_cycle: float = 4.0
    local_loopback_latency: int = 2
    injection_latency: int = 1
    #: "mesh" (Alewife's 2-D mesh) or "torus" (wraparound links)
    topology: str = "mesh"

    def __post_init__(self) -> None:
        if self.topology not in ("mesh", "torus"):
            raise ValueError(
                f"topology must be 'mesh' or 'torus', got {self.topology!r}"
            )


@dataclass
class CmmuParams:
    """Network-coprocessor (CMMU) message-interface timing."""

    #: fixed descriptor setup before per-word register writes
    describe_base: int = 2
    #: one coprocessor register write per explicit operand (cached-write speed)
    describe_per_operand: int = 1
    #: writing one address-length pair
    describe_per_block: int = 2
    #: the atomic launch instruction
    launch_cycles: int = 1
    #: paper §3: "It takes 5 cycles to get into the message handler"
    interrupt_entry: int = 5
    #: returning from the handler / dispatching deferred work
    interrupt_exit: int = 3
    #: reading one word of the 16-word receive window
    window_read: int = 1
    #: issuing a storeback instruction
    storeback_cycles: int = 2
    #: DMA streaming rate; 2 cycles/word = 2 bytes/cycle, which sets the
    #: large-block bulk-transfer bandwidth (~55 MB/s at 33 MHz, Fig. 7)
    dma_cycles_per_word: int = 2
    #: flushing one dirty cache line around a DMA transfer
    dma_flush_per_line: int = 2
    #: tail latency for the destination DMA drain after the last flit
    dma_drain_tail: int = 8
    #: message header words (destination + type)
    header_words: int = 2
    #: receive-window size in words (paper: 16-word sliding window)
    window_words: int = 16

    def describe_cost(self, n_operands: int, n_blocks: int) -> int:
        return (
            self.describe_base
            + n_operands * self.describe_per_operand
            + n_blocks * self.describe_per_block
        )


@dataclass
class ProcessorParams:
    """Per-effect base costs for the (Sparcle-like) processor."""

    #: ALU-ish work charged per Compute(1)
    compute_unit: int = 1
    #: atomic fetch-and-op adds this on top of the store timing
    atomic_extra: int = 2
    #: thread switch performed by the runtime scheduler
    context_switch: int = 10
    #: Sparcle hardware contexts: with >1, a thread that takes a cache
    #: miss is switched out (in ``miss_switch_cost`` cycles — Sparcle's
    #: 14-cycle fast switch) and the processor runs other ready work
    #: while the miss is outstanding. 1 = block on misses (default,
    #: matching the paper's experiments, which predate multithreaded
    #: operation of the prototype).
    hw_contexts: int = 1
    miss_switch_cost: int = 14
    #: weak ordering: stores retire asynchronously through a buffer of
    #: this depth; 0 (default) = sequentially-consistent blocking
    #: stores, as the paper's experiments assume. Racing programs must
    #: Fence before publishing flags when this is enabled.
    store_buffer_depth: int = 0
    #: processor-visible cost of issuing a buffered store
    store_issue_cost: int = 2

    def __post_init__(self) -> None:
        if self.hw_contexts < 1:
            raise ValueError(f"hw_contexts must be >= 1, got {self.hw_contexts}")
        if self.store_buffer_depth < 0:
            raise ValueError(
                f"store_buffer_depth must be >= 0, got {self.store_buffer_depth}"
            )


@dataclass
class MachineConfig:
    """Full Alewife machine description."""

    n_nodes: int = 64
    line_size: int = 16
    cache_lines: int = 4096  # 64 KB / 16 B
    dir_hw_pointers: int = 5
    network: NetworkParams = field(default_factory=NetworkParams)
    coherence: CoherenceParams = field(default_factory=CoherenceParams)
    cmmu: CmmuParams = field(default_factory=CmmuParams)
    processor: ProcessorParams = field(default_factory=ProcessorParams)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.cache_lines <= 0:
            raise ValueError("cache_lines must be positive")
