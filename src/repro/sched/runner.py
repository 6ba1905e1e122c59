"""End-to-end simulation assembly and execution.

``SimulationRun`` wires together everything below the allocation layer:
the event engine, the wireless channel, one MAC entity per node (with a
per-system scheduling policy), CBR sources, source-route forwarding at
relays, and the metrics collector.  The three compared systems differ only
in the policy factory they pass in — see :mod:`repro.sched.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from ..core.model import NodeId, Scenario, SubflowId
from ..mac import MacEntity, MacTimings, WirelessChannel
from ..mac.policies import SchedulingPolicy
from ..metrics.collector import MetricsCollector
from ..obs.registry import incr, set_gauge
from ..obs.trace import span
from ..net.packet import DataPacket
from ..sim import RngRegistry, Simulator, Tracer, NULL_TRACER
from ..traffic.cbr import (
    DEFAULT_PACKET_BYTES,
    DEFAULT_PACKETS_PER_SECOND,
    CbrSource,
    US,
)

#: A policy factory: (node, timings) -> SchedulingPolicy.
PolicyFactory = Callable[[NodeId, MacTimings], SchedulingPolicy]


@dataclass
class TrafficConfig:
    """Workload knobs (defaults follow the paper's evaluation)."""

    packets_per_second: float = DEFAULT_PACKETS_PER_SECOND
    packet_bytes: int = DEFAULT_PACKET_BYTES
    jitter_fraction: float = 0.0
    stagger: float = 997.0  # us between flow start times (desynchronizes)


class SimulationRun:
    """One simulation of one system on one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        policy_factory: PolicyFactory,
        seed: int = 1,
        timings: Optional[MacTimings] = None,
        traffic: Optional[TrafficConfig] = None,
        tracer: Tracer = NULL_TRACER,
        series_window_seconds: Optional[float] = None,
    ) -> None:
        self.scenario = scenario
        self.timings = timings or MacTimings()
        self.traffic = traffic or TrafficConfig()
        self.tracer = tracer
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.metrics = MetricsCollector(
            scenario, series_window_seconds=series_window_seconds
        )
        self.channel = WirelessChannel(self.sim, scenario.network, tracer)
        self.macs: Dict[NodeId, MacEntity] = {}
        for node in scenario.network.nodes:
            policy = policy_factory(node, self.timings)
            self.macs[node] = MacEntity(
                node=node,
                sim=self.sim,
                channel=self.channel,
                policy=policy,
                rng=self.rng,
                timings=self.timings,
                tracer=tracer,
                on_delivery=self._on_delivery,
                on_drop=self._on_mac_drop,
            )
        self.sources = [
            CbrSource(
                sim=self.sim,
                flow=flow,
                sink=self.macs[flow.source].enqueue,
                packets_per_second=self.traffic.packets_per_second,
                packet_bytes=self.traffic.packet_bytes,
                rng=self.rng,
                jitter_fraction=self.traffic.jitter_fraction,
                on_offered=self.metrics.record_offered,
                on_source_drop=self.metrics.record_source_drop,
            )
            for flow in scenario.flows
        ]

    # ------------------------------------------------------------------
    # Forwarding plane
    # ------------------------------------------------------------------
    def _on_delivery(self, receiver: NodeId, packet: DataPacket) -> None:
        """A DATA frame was decoded at its next hop."""
        self.metrics.record_hop_delivery(packet, now=self.sim.now)
        self.tracer.log(self.sim.now, "app", "hop-delivered",
                        node=receiver, sid=str(packet.subflow))
        if packet.at_last_hop:
            return
        forwarded = packet.next_hop_copy()
        if not self.macs[receiver].enqueue(forwarded):
            self.metrics.record_relay_drop(forwarded)

    def _on_mac_drop(self, node: NodeId, packet: DataPacket,
                     reason: str) -> None:
        self.metrics.record_mac_drop(packet)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, seconds: float) -> MetricsCollector:
        """Simulate ``seconds`` of traffic and return the metrics."""
        if seconds <= 0:
            raise ValueError("duration must be positive")
        with span("sim.run"):
            for idx, source in enumerate(self.sources):
                source.start(offset=idx * self.traffic.stagger)
            horizon = seconds * US
            self.sim.run_until(horizon)
            for source in self.sources:
                source.stop()
        self.metrics.duration = horizon
        incr("sim.runs")
        set_gauge("sim.simulated_seconds", seconds)
        return self.metrics


def subflow_shares_by_node(
    scenario: Scenario, subflow_shares: Mapping[SubflowId, float]
) -> Dict[NodeId, Dict[SubflowId, float]]:
    """Group per-subflow shares by the node that transmits them."""
    per_node: Dict[NodeId, Dict[SubflowId, float]] = {
        n: {} for n in scenario.network.nodes
    }
    for flow in scenario.flows:
        for sub in flow.subflows:
            share = subflow_shares.get(sub.sid)
            if share is None:
                raise KeyError(f"no share for subflow {sub.sid}")
            per_node[sub.sender][sub.sid] = share
    return per_node
