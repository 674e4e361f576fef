"""Network packets.

Every inter-node communication — coherence protocol traffic *and*
software messages — travels as a :class:`Packet`. The CMMU message
format (paper Fig. 5) is layered on top of this in ``repro.cmmu``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

_packet_ids = itertools.count()


class PacketKind(enum.Enum):
    """Coarse classification used for routing to the right consumer."""

    # Members are singletons, so identity hashing is equivalent to the
    # default name-based Enum hash — but object.__hash__ is a C slot,
    # and every packet is hashed several times (is_protocol frozenset
    # probe, per-kind stats Counter) on the hot path.
    __hash__ = object.__hash__

    # --- cache-coherence protocol traffic (consumed by CMMU hardware) ---
    COH_READ_REQ = "coh_read_req"
    COH_WRITE_REQ = "coh_write_req"          # read-exclusive
    COH_UPGRADE_REQ = "coh_upgrade_req"      # S -> M, no data needed
    COH_DATA_REPLY = "coh_data_reply"
    COH_ACK_REPLY = "coh_ack_reply"          # upgrade grant, no data
    COH_INVALIDATE = "coh_invalidate"
    COH_INV_ACK = "coh_inv_ack"
    COH_FORWARD = "coh_forward"              # home forwards req to owner
    COH_WRITEBACK = "coh_writeback"
    # --- software messages (delivered via interrupt + receive window) ---
    USER_MESSAGE = "user_message"
    # --- bulk data transfer (DMA at both ends) ---
    DMA_TRANSFER = "dma_transfer"


#: Packet kinds that the CMMU consumes in hardware without
#: interrupting the processor.
PROTOCOL_KINDS = frozenset(
    {
        PacketKind.COH_READ_REQ,
        PacketKind.COH_WRITE_REQ,
        PacketKind.COH_UPGRADE_REQ,
        PacketKind.COH_DATA_REPLY,
        PacketKind.COH_ACK_REPLY,
        PacketKind.COH_INVALIDATE,
        PacketKind.COH_INV_ACK,
        PacketKind.COH_FORWARD,
        PacketKind.COH_WRITEBACK,
    }
)


@dataclass(slots=True)
class Packet:
    """A single network packet (slotted: coherence-heavy runs create
    millions of them).

    ``size_words`` (32-bit words, header included) determines the
    occupancy of each link the packet crosses; ``payload`` carries
    model-level data (protocol transaction references, message
    operands, DMA ranges).
    """

    src: int
    dst: int
    kind: PacketKind
    size_words: int
    payload: Any = None
    #: when set, the packet body streams at this rate instead of the
    #: link bandwidth — used for DMA transfers whose end-to-end rate is
    #: limited by the (slower) memory DMA engines at the endpoints
    cycles_per_word_override: float | None = None
    pid: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_words <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_words}")

    @property
    def is_protocol(self) -> bool:
        return self.kind in PROTOCOL_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet#{self.pid} {self.kind.value} {self.src}->{self.dst} "
            f"{self.size_words}w>"
        )
