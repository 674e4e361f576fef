"""``accum`` (paper §4.4, Fig. 8): sum a linear integer array that
resides on a remote node.

* Shared-memory version: straightforward inner loop over the remote
  array, prefetching one cache block ahead — all-loads, so the
  prefetch genuinely hides latency.
* Message-passing version: transfer the whole array into local memory
  with the bulk-copy mechanism, then sum out of local memory. The DMA
  deposit leaves the destination lines uncached, so the local sum
  pays a local miss per line — which is why (paper observation) even
  discounting the transfer time the message version only "rides just
  below" the shared-memory curve.
"""

from __future__ import annotations

from typing import Generator

from repro.machine.machine import Machine
from repro.proc.effects import Compute, ComputeLoad
from repro.runtime.bulk import BulkTransfer

#: add + index arithmetic per element beyond the load itself
ADD_COST = 2


def fill_array(machine: Machine, addr: int, n_elems: int, seed: int = 1) -> list[int]:
    """Deposit a deterministic test array; returns the Python values."""
    values = [(i * 2654435761 + seed) % 1000 for i in range(n_elems)]
    for i, v in enumerate(values):
        machine.store.write(addr + i * 8, v)
    return values


def accum_shared_memory(
    array_addr: int, n_elems: int, line_size: int = 16
) -> Generator:
    """Sum the (remote) array through coherent loads with one-block-
    ahead prefetching (one :class:`~repro.proc.effects.ComputeLoad`
    loop); returns the sum."""
    values = yield ComputeLoad(
        array_addr, n_elems, compute=ADD_COST, prefetch_line=line_size
    )
    return sum(values)


def accum_message_passing(
    bulk: BulkTransfer,
    owner_node: int,
    array_addr: int,
    local_buf: int,
    n_elems: int,
) -> Generator:
    """Request the whole array via a fetch message; the owner bulk-DMAs
    it back; sum out of local memory. Returns the sum.

    Runs on the consumer node. The fetch request is a small message to
    the owner whose handler issues the bulk transfer back (two-message
    protocol: request + data).
    """
    nbytes = n_elems * 8
    cid = bulk.new_copy_id()
    # pull protocol: ask the owner to push the array to us
    yield from _request_fetch(bulk, owner_node, array_addr, local_buf, nbytes, cid)
    yield from bulk.arrival_future(cid).wait()
    values = yield ComputeLoad(local_buf, n_elems, compute=ADD_COST)
    return sum(values)


def accum_message_pipelined(
    bulk: BulkTransfer,
    owner_node: int,
    array_addr: int,
    local_buf: int,
    n_elems: int,
    chunk_elems: int = 64,
) -> Generator:
    """The paper's §4.4 speculation, implemented: break the transfer
    into chunks and overlap summing chunk k with transferring chunk
    k+1. The paper predicts this "might perform better than the
    shared-memory implementation, but only by a very small amount" —
    the pipelined consume loop is the same inner loop as the
    shared-memory version minus one prefetch per iteration, while each
    chunk adds fixed messaging overhead.

    Runs on the consumer node; returns the sum.
    """
    if chunk_elems <= 0:
        raise ValueError(f"chunk_elems must be positive, got {chunk_elems}")
    chunks = []
    off = 0
    while off < n_elems:
        size = min(chunk_elems, n_elems - off)
        chunks.append((off, size, bulk.new_copy_id()))
        off += size
    # request all chunks up front; the owner streams them back-to-back
    # (its DMA engine serializes, giving the pipeline)
    for off, size, cid in chunks:
        yield from _request_fetch(
            bulk, owner_node, array_addr + off * 8, local_buf + off * 8,
            size * 8, cid,
        )
    total = 0
    for off, size, cid in chunks:
        yield from bulk.arrival_future(cid).wait()
        values = yield ComputeLoad(local_buf + off * 8, size, compute=ADD_COST)
        total += sum(values)
    return total


MSG_FETCH_REQ = "accum.fetch"


class AccumFetchService:
    """Owner-side handler: on a fetch request, bulk-send the array."""

    def __init__(self, machine: Machine, bulk: BulkTransfer, handler_cost: int = 20):
        self.machine = machine
        self.bulk = bulk
        self.handler_cost = handler_cost
        for node in range(machine.n_nodes):
            machine.processor(node).register_handler(MSG_FETCH_REQ, self._handle)

    def _handle(self, msg) -> Generator:
        src_addr, dst_addr, nbytes, cid = msg.operands
        yield Compute(self.handler_cost)
        yield from self.bulk.send(msg.src, src_addr, dst_addr, nbytes, copy_id=cid)


def _request_fetch(bulk, owner, src_addr, dst_addr, nbytes, cid) -> Generator:
    from repro.proc.effects import Send

    yield Send(owner, MSG_FETCH_REQ, operands=(src_addr, dst_addr, nbytes, cid))
