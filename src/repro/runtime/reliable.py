"""Reliable message delivery on top of the raw CMMU send path.

The paper's message interface is deliberately raw: software launches a
packet and the hardware makes *no* delivery promise beyond what the
fabric happens to do. On a healthy fabric that is free performance; on
a faulty one (``repro.faults``) it is the software runtime's job to
build reliability. This module is that layer:

* every reliable message carries a per-flow **sequence number** in its
  first operand word,
* the receiver **acks** each sequence number (acks are themselves
  plain messages and may be lost),
* the sender keeps unacked messages pending and **retransmits** on an
  exponential-backoff timeout — each retransmission is a real
  describe/launch executed by the source processor through the effect
  model, so retries cost simulated cycles and compete for the pipeline
  like any other software,
* the receiver **de-duplicates** by sequence number, so drops,
  duplicate faults, lost acks, and crossed retransmissions all
  collapse to exactly-once *dispatch* of the application handler.

Delivery is reliable but not ordered: a delayed packet may dispatch
after a younger one. The primitives layered on top (bulk transfer,
the combining-tree barrier and all-reduce, remote thread invocation)
are all commutative per message, so they only need exactly-once.
Each holds the layer or the raw :class:`~repro.machine.Machine` as
its one transport: both offer ``register_handler``,
``register_everywhere`` and ``send``.

Usage::

    layer = ReliableLayer(machine)
    layer.register_everywhere("app.msg", handler_fn)
    # inside a thread running on node `src`:
    yield from layer.send(src, dst, "app.msg", operands=(1, 2))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.cmmu.message import BlockRef, Message
from repro.machine.machine import Machine
from repro.proc.effects import Compute, Send
from repro.proc.processor import HandlerFn
from repro.runtime.sync import Future
from repro.sim.engine import EventHandle, SimulationError

#: wire message types of the reliability protocol
REL_DATA = "rel.data"
REL_ACK = "rel.ack"


@dataclass
class ReliableParams:
    """Software cost and timer constants (cycles)."""

    #: sender bookkeeping per send (sequence assignment, pending entry)
    send_sw_cost: int = 6
    #: receiver header processing per arrival (seq check, ack setup)
    recv_sw_cost: int = 8
    #: processing an ack at the sender
    ack_sw_cost: int = 4
    #: retransmission path setup (timer pop, descriptor rebuild)
    retx_sw_cost: int = 24
    #: first retransmit timeout: base + per_data_word * payload words.
    #: The per-word term keeps the timer above the DMA streaming time
    #: of large bulk transfers (2 cycles/word at the default rate).
    ack_timeout_base: int = 400
    ack_timeout_per_word: int = 4
    #: exponential backoff factor and cap for successive retries
    backoff_factor: float = 2.0
    timeout_cap: int = 20_000
    #: give up (SimulationError) after this many retransmissions of
    #: one message — a permanently dead link is a fatal fault
    max_retries: int = 12

    def initial_timeout(self, data_words: int) -> int:
        return self.ack_timeout_base + self.ack_timeout_per_word * data_words


@dataclass
class ReliableStats:
    data_sent: int = 0          # first transmissions
    retransmits: int = 0
    acks_received: int = 0
    stale_acks: int = 0         # acks for already-acked seqs (dup acks)
    delivered: int = 0          # exactly-once handler dispatches
    duplicates_dropped: int = 0  # arrivals suppressed by seq dedup


@dataclass
class _Pending:
    """Sender-side state of one unacked message."""

    seq: int
    src: int
    dst: int
    mtype: str
    operands: tuple[Any, ...]
    blocks: list[BlockRef]
    timeout: int
    retries: int = 0
    timer: EventHandle | None = None
    future: Future = field(default_factory=Future)


class ReliableLayer:
    """Machine-wide reliable delivery service.

    Registers the protocol's ``rel.data`` / ``rel.ack`` handlers on
    every processor at construction; application message types are
    then registered *with the layer* (per node or everywhere) instead
    of with the processors directly.
    """

    def __init__(self, machine: Machine, params: ReliableParams | None = None) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.p = params or ReliableParams()
        self.stats = ReliableStats()
        #: application dispatch tables, one per node
        self._handlers: list[dict[str, HandlerFn]] = [
            {} for _ in range(machine.n_nodes)
        ]
        #: sender side: (src, dst, seq) -> pending entry
        self._pending: dict[tuple[int, int, int], _Pending] = {}
        #: sender side: next sequence number per (src, dst) flow
        self._next_seq: dict[tuple[int, int], int] = {}
        #: receiver side: (src, dst) -> [high_water, out_of_order_set]
        self._recv: dict[tuple[int, int], list] = {}
        for node in range(machine.n_nodes):
            proc = machine.processor(node)
            proc.register_handler(REL_DATA, self._make_data_handler(node))
            proc.register_handler(REL_ACK, self._make_ack_handler(node))

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_handler(self, node: int, mtype: str, fn: HandlerFn) -> None:
        if mtype in self._handlers[node]:
            raise SimulationError(
                f"reliable handler {mtype!r} already registered on node {node}"
            )
        self._handlers[node][mtype] = fn

    def register_everywhere(self, mtype: str, fn: HandlerFn) -> None:
        for node in range(self.machine.n_nodes):
            self.register_handler(node, mtype, fn)

    # ------------------------------------------------------------------
    # Send path (yield from inside a thread or handler on ``src``)
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        operands: tuple[Any, ...] = (),
        blocks: list[BlockRef] | None = None,
        wait_ack: bool = False,
    ) -> Generator:
        """Reliably send one message from ``src`` to ``dst``.

        Returns after the local describe/launch (plus bookkeeping);
        delivery is asynchronous with background retransmission. With
        ``wait_ack`` the caller suspends until the receiver's ack —
        legal only in threads (handlers must not suspend).
        """
        blocks = list(blocks) if blocks else []
        flow = (src, dst)
        seq = self._next_seq.get(flow, 1)
        self._next_seq[flow] = seq + 1
        data_words = sum((b.nbytes + 3) // 4 for b in blocks)
        entry = _Pending(
            seq=seq, src=src, dst=dst, mtype=mtype,
            operands=tuple(operands), blocks=blocks,
            timeout=self.p.initial_timeout(data_words),
        )
        key = (src, dst, seq)
        self._pending[key] = entry
        yield Compute(self.p.send_sw_cost)
        yield Send(dst, REL_DATA, operands=(seq, mtype) + entry.operands, blocks=blocks)
        self.stats.data_sent += 1
        self._arm(key, entry)
        if wait_ack:
            yield from entry.future.wait()

    def pending_count(self) -> int:
        """Messages currently awaiting an ack (diagnostics)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Timers and retransmission
    # ------------------------------------------------------------------
    def _arm(self, key: tuple[int, int, int], entry: _Pending) -> None:
        if key not in self._pending:
            return  # ack raced ahead of the (re)send completing
        entry.timer = self.sim.schedule(entry.timeout, lambda: self._on_timeout(key))

    def _on_timeout(self, key: tuple[int, int, int]) -> None:
        entry = self._pending.get(key)
        if entry is None:
            return  # acked meanwhile
        entry.retries += 1
        if entry.retries > self.p.max_retries:
            raise SimulationError(
                f"reliable delivery n{entry.src}->n{entry.dst} "
                f"{entry.mtype!r} seq={entry.seq} gave up after "
                f"{self.p.max_retries} retransmissions (dead link?)"
            )
        entry.timeout = min(
            int(entry.timeout * self.p.backoff_factor), self.p.timeout_cap
        )

        def retransmit() -> Generator:
            if key not in self._pending:
                return  # acked while we waited for the pipeline
            yield Compute(self.p.retx_sw_cost)
            yield Send(
                entry.dst, REL_DATA,
                operands=(entry.seq, entry.mtype) + entry.operands,
                blocks=entry.blocks,
            )
            self.stats.retransmits += 1
            self._arm(key, entry)

        self.machine.processor(entry.src).run_thread(
            retransmit(), label=f"retx:{entry.mtype}->{entry.dst}"
        )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _mark_delivered(self, flow: tuple[int, int], seq: int) -> bool:
        """True the first time ``seq`` is seen on ``flow``; the
        contiguous prefix collapses to a high-water mark so state stays
        bounded under in-order delivery."""
        state = self._recv.setdefault(flow, [0, set()])
        hw, extra = state
        if seq <= hw or seq in extra:
            return False
        extra.add(seq)
        while hw + 1 in extra:
            hw += 1
            extra.discard(hw)
        state[0] = hw
        return True

    def _make_data_handler(self, node: int) -> HandlerFn:
        def handle_data(msg: Message) -> Generator:
            seq, mtype = msg.operands[0], msg.operands[1]
            inner_operands = tuple(msg.operands[2:])
            yield Compute(self.p.recv_sw_cost)
            fresh = self._mark_delivered((msg.src, node), seq)
            # always ack — the previous ack may itself have been lost
            yield Send(msg.src, REL_ACK, operands=(seq,))
            if not fresh:
                self.stats.duplicates_dropped += 1
                return
            fn = self._handlers[node].get(mtype)
            if fn is None:
                raise SimulationError(
                    f"node {node}: no reliable handler for {mtype!r}"
                )
            self.stats.delivered += 1
            inner = Message(
                src=msg.src,
                dst=msg.dst,
                mtype=mtype,
                operands=inner_operands,
                data_bytes=msg.data_bytes,
                data_snapshot=msg.data_snapshot,
            )
            yield from fn(inner)

        return handle_data

    def _make_ack_handler(self, node: int) -> HandlerFn:
        def handle_ack(msg: Message) -> Generator:
            (seq,) = msg.operands
            yield Compute(self.p.ack_sw_cost)
            entry = self._pending.pop((node, msg.src, seq), None)
            if entry is None:
                self.stats.stale_acks += 1
                return
            if entry.timer is not None:
                entry.timer.cancel()
            self.stats.acks_received += 1
            entry.future.resolve(None)

        return handle_ack
