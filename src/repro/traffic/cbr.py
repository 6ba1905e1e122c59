"""Constant-bit-rate traffic sources.

The paper's workload: "data at source nodes are generated at a constant
bit rate (CBR) of 200 packets per second with a packet size of 512 bytes"
— 0.82 Mbps per flow, enough to keep every source backlogged (the greedy
assumption of Sec. II-C).  Optional jitter desynchronizes sources without
changing the rate; disabled by default to match ns-2's CBR.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.model import Flow
from ..net.packet import DataPacket
from ..sim import RngRegistry, Simulator

#: The paper's workload parameters.
DEFAULT_PACKETS_PER_SECOND = 200.0
DEFAULT_PACKET_BYTES = 512

#: Microseconds per second.
US = 1_000_000.0


class CbrSource:
    """Generates packets for one flow at a fixed rate.

    ``sink`` is called with each new packet (normally the source node's
    MAC ``enqueue``); its boolean return is reported through
    ``on_source_drop`` when False.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        sink: Callable[[DataPacket], bool],
        packets_per_second: float = DEFAULT_PACKETS_PER_SECOND,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        rng: Optional[RngRegistry] = None,
        jitter_fraction: float = 0.0,
        on_offered: Optional[Callable[[str], None]] = None,
        on_source_drop: Optional[Callable[[str], None]] = None,
    ) -> None:
        if packets_per_second <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.sim = sim
        self.flow = flow
        self.sink = sink
        self.interval = US / packets_per_second
        self.packet_bytes = packet_bytes
        self.rng = rng
        self.jitter_fraction = jitter_fraction
        self.on_offered = on_offered or (lambda _: None)
        self.on_source_drop = on_source_drop or (lambda _: None)
        self._seq = 0
        self.generated = 0
        self._stopped = False
        self._running = False

    def start(self, offset: float = 0.0) -> None:
        """Begin (or resume) generating; ``offset`` staggers start times.

        Restartable: a stopped source may be started again (used by the
        dynamic-allocation experiment when a flow re-activates).  Calling
        ``start`` while already running is a no-op.
        """
        if self._running:
            return
        self._stopped = False
        self._running = True
        self.sim.schedule(offset, self._emit)

    def stop(self) -> None:
        """Stop generating after the current tick (restartable later)."""
        self._stopped = True

    def _emit(self) -> None:
        if self._stopped:
            self._running = False
            return
        self._seq += 1
        self.generated += 1
        packet = DataPacket(
            flow_id=self.flow.flow_id,
            route=tuple(self.flow.path),
            size_bytes=self.packet_bytes,
            created_at=self.sim.now,
            seq=self._seq,
        )
        self.on_offered(self.flow.flow_id)
        if not self.sink(packet):
            self.on_source_drop(self.flow.flow_id)
        delay = self.interval
        if self.jitter_fraction and self.rng is not None:
            stream = self.rng.stream(("cbr", self.flow.flow_id))
            span = self.interval * self.jitter_fraction
            delay += float(stream.uniform(-span, span))
        self.sim.schedule(max(delay, 1.0), self._emit)
