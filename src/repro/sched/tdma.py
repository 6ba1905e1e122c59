"""An ideal TDMA system: executing the fractional schedule directly.

Sec. III's estimation algorithm yields both an allocation and (via the
schedulability LP) a *fractional schedule* — a time-sharing of
independent sets of the subflow contention graph.  This module runs that
schedule as a perfectly coordinated, collision-free TDMA MAC:

* time is divided into frames; within a frame each independent set is
  active for its LP time fraction;
* while a set is active, each member subflow transmits queued packets
  back to back at the full channel rate (sets are independent, so the
  transmissions cannot interfere under the contention model);
* relaying, buffers, CBR sources, and the metrics pipeline are shared
  with the CSMA systems, so results are directly comparable.

This is the "ideal case" reference the paper evaluates against: the gap
between TDMA and 2PA quantifies the price of distributed random access,
while the gap between TDMA and the fluid bound quantifies pure MAC
overhead (headers and the configured guard time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..core.allocation import AllocationResult
from ..core.contention import ContentionAnalysis
from ..core.feasibility import check_schedulability
from ..core.model import Scenario, SubflowId
from ..mac.timings import MacTimings
from ..metrics.collector import MetricsCollector
from ..net.packet import DataPacket
from ..net.queues import DEFAULT_CAPACITY, DropTailQueue
from ..sim import Simulator
from ..traffic.cbr import (
    DEFAULT_PACKET_BYTES,
    DEFAULT_PACKETS_PER_SECOND,
    CbrSource,
    US,
)

#: Default TDMA frame length (us).  Short enough for smooth service,
#: long enough that per-window rounding losses stay small.
DEFAULT_FRAME_US = 50_000.0


@dataclass(frozen=True)
class TdmaWindow:
    """One slice of the frame: which subflows transmit, for how long."""

    members: FrozenSet[SubflowId]
    fraction: float


class TdmaSimulation:
    """Collision-free execution of a fractional schedule."""

    def __init__(
        self,
        scenario: Scenario,
        allocation: AllocationResult,
        analysis: Optional[ContentionAnalysis] = None,
        frame_us: float = DEFAULT_FRAME_US,
        timings: Optional[MacTimings] = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        packets_per_second: float = DEFAULT_PACKETS_PER_SECOND,
        queue_capacity: int = DEFAULT_CAPACITY,
        guard_us: float = 0.0,
    ) -> None:
        self.scenario = scenario
        self.allocation = allocation
        self.analysis = analysis or ContentionAnalysis(scenario)
        self.timings = timings or MacTimings()
        self.frame_us = float(frame_us)
        self.packet_bytes = packet_bytes
        self.guard_us = float(guard_us)
        #: Airtime per packet: pure DATA frame (ideal coordination needs
        #: no RTS/CTS or backoff) plus an optional guard time.
        self.packet_airtime = (
            self.timings.data_duration(packet_bytes) + self.guard_us
        )

        self.sim = Simulator()
        self.metrics = MetricsCollector(scenario)
        self.queues: Dict[SubflowId, DropTailQueue] = {
            s.sid: DropTailQueue(queue_capacity)
            for f in scenario.flows
            for s in f.subflows
        }
        self.windows = self._build_windows()
        self.sources = [
            CbrSource(
                sim=self.sim,
                flow=flow,
                sink=self._source_sink,
                packets_per_second=packets_per_second,
                packet_bytes=packet_bytes,
                on_offered=self.metrics.record_offered,
                on_source_drop=self.metrics.record_source_drop,
            )
            for flow in scenario.flows
        ]

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def _build_windows(self) -> List[TdmaWindow]:
        """Independent-set windows from the schedulability LP.

        Infeasible allocations (pentagon-style) are normalized to a
        schedule of length 1 — shares are implicitly scaled down, which
        is exactly the paper's "weight factors" interpretation.
        """
        rates = {
            sub.sid: self.allocation.share(flow.flow_id)
            for flow in self.scenario.flows
            for sub in flow.subflows
        }
        report = check_schedulability(
            self.analysis.graph, rates, self.scenario.capacity
        )
        total = report.schedule_length
        if total <= 0:
            return []
        scale = 1.0 / max(total, 1.0)
        windows = [
            TdmaWindow(frozenset(s), t * scale)
            for s, t in sorted(
                report.schedule.items(),
                key=lambda kv: sorted(map(str, kv[0])),
            )
        ]
        return windows

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _source_sink(self, packet: DataPacket) -> bool:
        return self.queues[packet.subflow].offer(packet)

    def _deliver(self, packet: DataPacket) -> None:
        self.metrics.record_hop_delivery(packet, now=self.sim.now)
        if packet.at_last_hop:
            return
        forwarded = packet.next_hop_copy()
        if not self.queues[forwarded.subflow].offer(forwarded):
            self.metrics.record_relay_drop(forwarded)

    # ------------------------------------------------------------------
    # Frame machinery
    # ------------------------------------------------------------------
    def _run_frame(self, horizon: float) -> None:
        start = self.sim.now
        offset = 0.0
        for window in self.windows:
            length = window.fraction * self.frame_us
            self._schedule_window(start + offset, length, window)
            offset += length
        next_frame = start + self.frame_us
        if next_frame < horizon:
            self.sim.schedule_at(next_frame,
                                 lambda: self._run_frame(horizon))

    def _schedule_window(self, begin: float, length: float,
                         window: TdmaWindow) -> None:
        """Queue per-subflow transmissions inside one window."""
        slots = int(length / self.packet_airtime)
        for k in range(slots):
            t = begin + (k + 1) * self.packet_airtime
            self.sim.schedule_at(
                t, lambda members=window.members: self._serve(members)
            )

    def _serve(self, members: FrozenSet[SubflowId]) -> None:
        """All member subflows complete one packet (if backlogged).

        Backpressure: a relay hop defers when its next-hop queue is full
        (a perfectly coordinated scheduler never transmits a packet that
        would be dropped on arrival), so window-rounding imbalances
        between a flow's hops cost throughput, never losses.
        """
        for sid in members:
            queue = self.queues.get(sid)
            if not queue:
                continue
            head = queue.head()
            if head is None:
                continue
            if not head.at_last_hop:
                next_queue = self.queues[
                    SubflowId(head.flow_id, head.hop + 1)
                ]
                if next_queue.is_full:
                    continue
            self._deliver(queue.pop())

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> MetricsCollector:
        if seconds <= 0:
            raise ValueError("duration must be positive")
        for idx, source in enumerate(self.sources):
            source.start(offset=idx * 7.0)
        horizon = seconds * US
        self._run_frame(horizon)
        self.sim.run_until(horizon)
        for source in self.sources:
            source.stop()
        self.metrics.duration = horizon
        return self.metrics


def build_tdma(
    scenario: Scenario,
    allocation: Optional[AllocationResult] = None,
    **kwargs,
) -> TdmaSimulation:
    """Ideal-TDMA system for ``scenario`` (defaults to the 2PA-C
    allocation)."""
    from ..core.allocation import basic_fairness_lp_allocation

    analysis = ContentionAnalysis(scenario)
    if allocation is None:
        allocation = basic_fairness_lp_allocation(analysis)
    return TdmaSimulation(scenario, allocation, analysis=analysis,
                          **kwargs)
