"""The Communications and Memory-Management Unit (CMMU) per node.

The CMMU is the single point where a node meets the network
(paper Fig. 4): it

* consumes coherence-protocol packets in hardware (handing them to the
  shared :class:`~repro.memory.coherence.CoherenceEngine`),
* implements the two-phase *describe/launch* send interface,
* runs the source/destination DMA engines for bulk transfer, and
* raises message interrupts toward the processor, exposing arrived
  packets through the 16-word receive window.

Timing notes: the interrupt fires when the packet *tail* arrives in
our model (hardware interrupts on the head; since a handler must not
consume data that has not arrived, tail-interrupt plus a short DMA
drain is an equivalent accounting that errs by at most the handler
ramp-up time).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.cmmu.message import BlockRef, Message, descriptor_words, validate_descriptor
from repro.params import CmmuParams
from repro.memory.coherence import CoherenceEngine
from repro.memory.store import BackingStore
from repro.network.fabric import Network
from repro.network.packet import Packet, PacketKind
from repro.sim.engine import Resource, SimulationError, Simulator


@dataclass
class CmmuStats:
    messages_sent: int = 0
    messages_received: int = 0
    data_words_sent: int = 0
    dma_transfers: int = 0
    interrupts_raised: int = 0
    queued_while_masked: int = 0


class Cmmu:
    """Per-node network coprocessor."""

    #: probe points (repro.sim.probe); after_launch fires with
    #: (dst, mtype, operands, msg) once a message is injected
    PROBES = ("after_launch",)
    __slots__ = ("sim", "node", "network", "coherence", "store", "p", "dma",
                 "in_queue", "on_message", "stats", *PROBES)

    def __init__(
        self,
        sim: Simulator,
        node: int,
        network: Network,
        coherence: CoherenceEngine,
        store: BackingStore,
        params: CmmuParams | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.network = network
        self.coherence = coherence
        self.store = store
        self.p = params or CmmuParams()
        self.dma = Resource(sim, f"dma{node}")
        #: messages that have arrived but not yet been dispatched (None,
        #: read as empty, until the first arrives; see Processor.ready)
        self.in_queue: deque[Message] | None = None
        #: processor hook: called (with no args) when a message becomes
        #: available for dispatch; the processor decides when to take it
        self.on_message: Callable[[], None] | None = None
        self.stats = CmmuStats()
        self.after_launch = ()
        network.attach(node, self._sink)

    def register_metrics(self, reg, **labels) -> None:
        """Register this CMMU's instruments (lazy reads) into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        s = self.stats
        labels = {"component": "cmmu", **labels}
        for name in ("messages_sent", "messages_received", "data_words_sent",
                     "dma_transfers", "interrupts_raised", "queued_while_masked"):
            reg.counter(f"cmmu.{name}", lambda n=name: getattr(s, n), **labels)
        reg.counter("cmmu.dma_busy_cycles", lambda: self.dma.total_busy, **labels)
        reg.gauge("cmmu.in_queue_depth", lambda: len(self.in_queue or ()),
                  **labels)

    # ------------------------------------------------------------------
    # Send side: describe + launch
    # ------------------------------------------------------------------
    def describe_launch_cost(self, n_operands: int, n_blocks: int) -> int:
        """Processor cycles to describe and launch one message."""
        return self.p.describe_cost(n_operands, n_blocks) + self.p.launch_cycles

    def launch(
        self,
        dst: int,
        mtype: str,
        operands: tuple[Any, ...] = (),
        blocks: list[BlockRef] | None = None,
    ) -> Message:
        """Inject a message (the processor has already paid the
        describe/launch cycles via its Send effect).

        For bulk blocks, the source DMA engine gathers a value
        snapshot, the source cache is made consistent with memory over
        the block ranges, and the packet body streams at the DMA rate.
        """
        blocks = blocks or []
        validate_descriptor(operands, blocks, self.p.header_words)
        data_bytes = sum(b.nbytes for b in blocks)
        snapshot: list[tuple[int, Any]] = []
        base = 0
        for b in blocks:
            self.coherence.dma_flush(self.node, b.addr, b.nbytes)
            for off, value in self.store.snapshot_range(b.addr, b.nbytes):
                snapshot.append((base + off, value))
            base += b.nbytes

        msg = Message(
            src=self.node,
            dst=dst,
            mtype=mtype,
            operands=operands,
            data_bytes=data_bytes,
            data_snapshot=snapshot,
        )
        head_words = descriptor_words(len(operands), len(blocks), self.p.header_words)
        self.stats.messages_sent += 1
        self.stats.data_words_sent += msg.data_words

        if blocks:
            self.stats.dma_transfers += 1
            stream_cycles = msg.data_words * self.p.dma_cycles_per_word
            start = self.dma.available_at()
            self.dma.acquire(stream_cycles, earliest=start)
            packet = Packet(
                src=self.node,
                dst=dst,
                kind=PacketKind.DMA_TRANSFER,
                size_words=head_words + msg.data_words,
                payload=msg,
                cycles_per_word_override=float(self.p.dma_cycles_per_word),
            )
            self.sim.call_at(start, lambda: self.network.send(packet))
        else:
            packet = Packet(
                src=self.node,
                dst=dst,
                kind=PacketKind.USER_MESSAGE,
                size_words=head_words,
                payload=msg,
            )
            self.network.send(packet)
        for fn in self.after_launch:
            fn(dst, mtype, operands, msg)
        return msg

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _sink(self, packet: Packet) -> None:
        if packet.is_protocol:
            self.coherence.handle_packet(packet)
            return
        msg = packet.payload
        if not isinstance(msg, Message):  # pragma: no cover - wiring error
            raise SimulationError(f"non-protocol packet without Message: {packet!r}")
        if self.in_queue is None:
            self.in_queue = deque()
        self.in_queue.append(msg)
        self.stats.messages_received += 1
        if self.on_message is not None:
            self.on_message()

    def pop_message(self) -> Message:
        """Take the head message out of the input queue (the processor
        does this when it enters the handler)."""
        if not self.in_queue:
            raise SimulationError(f"node {self.node}: receive window empty")
        return self.in_queue.popleft()

    # ------------------------------------------------------------------
    # Storeback (destination DMA scatter)
    # ------------------------------------------------------------------
    def storeback(self, msg: Message, dma_addr: int) -> int:
        """Deposit a message's block data at ``dma_addr``.

        Returns the handler-visible cost in cycles (storeback issue +
        destination cache flush + DMA drain tail). Values land in the
        backing store immediately; callers must charge the returned
        cycles before signalling data availability.
        """
        if msg.data_bytes <= 0:
            raise SimulationError("storeback on a message without block data")
        dirty = self.coherence.dma_flush(self.node, dma_addr, msg.data_bytes)
        self.store.write_snapshot(dma_addr, msg.data_bytes, msg.data_snapshot)
        self.dma.acquire(self.p.dma_drain_tail)
        return (
            self.p.storeback_cycles
            + dirty * self.p.dma_flush_per_line
            + self.p.dma_drain_tail
        )
