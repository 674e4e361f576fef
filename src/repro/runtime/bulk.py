"""Memory-to-memory bulk copy (paper §4.4, Fig. 7).

Three implementations of copying a block from the caller's local
memory to a remote node's memory:

* :func:`copy_no_prefetch` — doubleword load/store loop through the
  shared-memory interface; every destination line costs a blocking
  remote read-exclusive transaction.
* :func:`copy_prefetch` — same loop, prefetching one cache block
  (16 bytes) ahead. Prefetches fetch lines in SHARED state, so each
  destination line now costs *two* home transactions (the prefetch
  plus the store's write transaction) — reproducing the paper's
  observation that the prefetching copy loop is the slowest.
* :class:`BulkTransfer` / :meth:`BulkTransfer.send` — a single message
  with an address-length pair, gathered and scattered by the CMMU's
  DMA engines.
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.cmmu.message import BlockRef
from repro.machine.machine import Machine
from repro.proc.effects import Compute, LoadComputeStore, Storeback
from repro.runtime.reliable import ReliableLayer
from repro.runtime.sync import Future
from repro.sim.engine import SimulationError

MSG_BULK = "bulk.xfer"
MSG_BULK_ACK = "bulk.ack"

#: per-doubleword loop overhead (index bump + branch) in cycles
LOOP_OVERHEAD = 1

_copy_ids = itertools.count()


def copy_no_prefetch(
    src: int, dst: int, nbytes: int, line_size: int = 16
) -> Generator:
    """Simple doubleword copy loop (runs on the calling processor), as
    one :class:`~repro.proc.effects.LoadComputeStore` loop."""
    if nbytes % 8:
        raise ValueError(f"copy length must be a multiple of 8, got {nbytes}")
    yield LoadComputeStore(src, dst, nbytes // 8, compute=LOOP_OVERHEAD)


def copy_prefetch(
    src: int, dst: int, nbytes: int, line_size: int = 16
) -> Generator:
    """Copy loop prefetching one cache block ahead on both streams."""
    if nbytes % 8:
        raise ValueError(f"copy length must be a multiple of 8, got {nbytes}")
    yield LoadComputeStore(
        src, dst, nbytes // 8, compute=LOOP_OVERHEAD, prefetch_line=line_size
    )


class BulkTransfer:
    """Message-based memory-to-memory copy service.

    Registers a handler on every node; :meth:`send` may be called from
    any thread (or handler) on the source node. The destination
    handler scatters the data with a storeback and optionally acks.

    With ``reliable`` set, both the data message and the completion
    ack travel through the :class:`ReliableLayer` (sequence numbers,
    acks, retransmission), so the copy runs to completion on a lossy
    fabric; :meth:`send` then needs ``src_node`` to bind retransmit
    timers to the sending processor.
    """

    def __init__(
        self,
        machine: Machine,
        send_sw_cost: int = 100,
        recv_sw_cost: int = 100,
        reliable: ReliableLayer | None = None,
    ) -> None:
        self.machine = machine
        #: software library overhead around the raw hardware interface
        #: (argument checking, buffer bookkeeping, completion setup) —
        #: calibrated so the fixed per-copy cost matches Fig. 7's
        #: small-block numbers (~360 cycles + streaming)
        self.send_sw_cost = send_sw_cost
        self.recv_sw_cost = recv_sw_cost
        self.reliable = reliable
        self.net = reliable or machine
        #: sender-side completion futures: copy_id -> Future
        self._acks: dict[int, Future] = {}
        #: receiver-side notification futures: copy_id -> Future
        self._arrivals: dict[int, Future] = {}
        self.net.register_everywhere(MSG_BULK, self._handle_bulk)
        self.net.register_everywhere(MSG_BULK_ACK, self._handle_ack)

    # ------------------------------------------------------------------
    def arrival_future(self, copy_id: int) -> Future:
        """Future resolved when the given copy lands at its destination
        (register before or after arrival; both orders work)."""
        return self._arrivals.setdefault(copy_id, Future())

    def new_copy_id(self) -> int:
        return next(_copy_ids)

    def send(
        self,
        dst_node: int,
        src_addr: int,
        dst_addr: int,
        nbytes: int,
        wait_ack: bool = False,
        copy_id: int | None = None,
        src_node: int | None = None,
    ) -> Generator:
        """``yield from bulk.send(...)`` from the source processor.

        Returns the copy id. With ``wait_ack`` the caller blocks until
        the destination acknowledges the storeback. In reliable mode
        ``src_node`` (the node this generator runs on) is required.
        """
        if self.reliable is not None and src_node is None:
            raise SimulationError("reliable bulk transfer needs src_node")
        cid = self.new_copy_id() if copy_id is None else copy_id
        yield Compute(self.send_sw_cost)
        yield from self.net.send(
            src_node,
            dst_node,
            MSG_BULK,
            operands=(dst_addr, cid, 1 if wait_ack else 0),
            blocks=[BlockRef(src_addr, nbytes)],
        )
        if wait_ack:
            fut = self._acks.setdefault(cid, Future())
            yield from fut.wait()
            del self._acks[cid]
        return cid

    # ------------------------------------------------------------------
    def _handle_bulk(self, msg) -> Generator:
        dst_addr, cid, want_ack = msg.operands
        yield Compute(self.recv_sw_cost)
        yield Storeback(dst_addr)
        if want_ack:
            # the handler runs on the destination node (== msg.dst)
            yield from self.net.send(msg.dst, msg.src, MSG_BULK_ACK, operands=(cid,))
        fut = self._arrivals.setdefault(cid, Future())
        fut.resolve(None)

    def _handle_ack(self, msg) -> Generator:
        (cid,) = msg.operands
        yield Compute(2)
        fut = self._acks.setdefault(cid, Future())
        fut.resolve(None)
