"""Drop-tail packet queues with statistics.

Each subflow originating at a node has its own FIFO queue (Sec. IV-C:
"packets from different subflows are queued separately").  The plain
802.11 baseline instead uses one interface queue per node, which is the
same class with a single merged key.  Buffer overflow at relays is the
loss mechanism the paper's Tables II/III measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from .packet import DataPacket

#: ns-2's default interface-queue length.
DEFAULT_CAPACITY = 50


@dataclass
class QueueStats:
    enqueued: int = 0
    dropped: int = 0
    dequeued: int = 0



class DropTailQueue:
    """A bounded FIFO; arrivals beyond ``capacity`` are dropped."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: Deque[DataPacket] = deque()
        self.stats = QueueStats()

    def offer(self, packet: DataPacket) -> bool:
        """Enqueue ``packet``; returns False (and counts a drop) if full."""
        if len(self._items) >= self.capacity:
            self.stats.dropped += 1
            return False
        self._items.append(packet)
        self.stats.enqueued += 1
        return True

    def head(self) -> Optional[DataPacket]:
        """Peek the head-of-line packet without removing it."""
        return self._items[0] if self._items else None

    def pop(self) -> DataPacket:
        """Remove and return the head-of-line packet."""
        if not self._items:
            raise IndexError("pop from empty queue")
        self.stats.dequeued += 1
        return self._items.popleft()

    def remove(self, packet: DataPacket) -> None:
        """Remove a specific packet (used when the MAC drops the HOL)."""
        self._items.remove(packet)
        self.stats.dequeued += 1

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity
