"""Packets and MAC frames.

A :class:`DataPacket` is the network-layer unit travelling hop by hop
along a source route; :class:`Frame` is the MAC-layer unit occupying the
channel (RTS/CTS/DATA/ACK).  Control frames carry the piggybacked
service-tag fields the 2PA phase-2 scheduler needs (Sec. IV-C: "the RTS,
CTS and ACK packets are used to piggyback the new service tag of the
currently transmitting data packet").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from ..core.model import NodeId, SubflowId

_packet_counter = itertools.count(1)


@dataclass
class DataPacket:
    """One network-layer packet of a multi-hop flow."""

    flow_id: str
    route: Tuple[NodeId, ...]          # full source route, source..dest
    size_bytes: int
    created_at: float
    seq: int = 0
    hop: int = 1                       # 1-based index of the current hop
    uid: int = field(default_factory=lambda: next(_packet_counter))

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ValueError("route must have at least two nodes")
        if self.size_bytes <= 0:
            raise ValueError("packet size must be positive")

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def subflow(self) -> SubflowId:
        """The subflow this packet currently belongs to."""
        return SubflowId(self.flow_id, self.hop)

    @property
    def sender(self) -> NodeId:
        return self.route[self.hop - 1]

    @property
    def receiver(self) -> NodeId:
        return self.route[self.hop]

    @property
    def destination(self) -> NodeId:
        return self.route[-1]

    @property
    def at_last_hop(self) -> bool:
        return self.hop == len(self.route) - 1

    def advance(self) -> None:
        """Move the packet to its next hop (after a successful delivery)."""
        if self.at_last_hop:
            raise RuntimeError(f"packet {self.uid} is already at last hop")
        self.hop += 1

    def next_hop_copy(self) -> "DataPacket":
        """A fresh packet object for the next hop.

        Relays must forward a *copy* (with a new uid): the upstream sender
        still references the original while waiting for its ACK, and the
        per-hop duplicate filter keys on uid.
        """
        if self.at_last_hop:
            raise RuntimeError(f"packet {self.uid} is already at last hop")
        return DataPacket(
            flow_id=self.flow_id,
            route=self.route,
            size_bytes=self.size_bytes,
            created_at=self.created_at,
            seq=self.seq,
            hop=self.hop + 1,
        )


class FrameKind(Enum):
    """The four frame types of the RTS/CTS/DATA/ACK handshake."""

    RTS = "RTS"
    CTS = "CTS"
    DATA = "DATA"
    ACK = "ACK"


@dataclass(frozen=True)
class TagInfo:
    """Piggybacked scheduling state (Sec. IV-C's service tags).

    ``start_tag`` is the current packet's start tag at the transmitting
    node; ``receiver_backoff`` is the receiver-estimated backoff value R
    (carried in ACK frames only).
    """

    node: NodeId
    subflow: Optional[SubflowId]
    start_tag: float
    receiver_backoff: Optional[float] = None


@dataclass(frozen=True)
class Frame:
    """A MAC frame occupying the channel for ``duration`` microseconds.

    ``nav`` is the duration-field value: how long *after this frame ends*
    the medium will stay reserved (virtual carrier sense for overhearers).
    """

    kind: FrameKind
    src: NodeId
    dst: NodeId
    duration: float
    nav: float = 0.0
    packet: Optional[DataPacket] = None
    tags: Optional[TagInfo] = None

    def __str__(self) -> str:
        return f"{self.kind.value} {self.src}->{self.dst}"
