"""Dynamic flow arrivals/departures with phase-1 re-allocation.

The paper computes its allocation for a fixed flow set; a deployable
system must react when flows join or leave.  This experiment exercises
exactly that: flows have activation windows, and whenever the active set
changes, phase 1 re-runs on the active flows and the new allocated shares
are pushed into every node's phase-2 scheduler
(:meth:`FairBackoffPolicy.update_shares`) — the distributed analogue of
the coordinator re-broadcasting the strategy.

The headline property: while an interfering flow is active, the remaining
flows' measured rates track the *recomputed* shares, and after it leaves
they climb back to the richer allocation — without restarting the MAC or
losing queued packets.

Re-allocation is delegated to the long-lived
:class:`~repro.resilience.runtime.AllocatorRuntime`: each membership
change becomes one epoch (diffed into flow-up/flow-down events by
:meth:`AllocatorRuntime.set_active`), solved on universe-restricted
contention by the component-sharded LP with per-epoch Eq. (6)/basic-floor
validation.  Allocations are bit-identical to a cold phase-1 solve of
each epoch's active flows (asserted in ``tests/test_perf_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.model import Scenario, SubflowId
from ..mac import MacTimings
from ..mac.policies import FairBackoffPolicy
from ..resilience.runtime import AllocatorRuntime, RuntimeConfig
from ..sched.runner import SimulationRun, TrafficConfig
from ..traffic.cbr import US


@dataclass(frozen=True)
class FlowSchedule:
    """Activation window of one flow (seconds; ``end=None`` = forever)."""

    flow_id: str
    start: float = 0.0
    end: Optional[float] = None

    def active_at(self, t: float) -> bool:
        return self.start <= t and (self.end is None or t < self.end)


@dataclass
class PhaseSnapshot:
    """Measured deliveries between two consecutive re-allocation events."""

    start: float
    end: float
    active_flows: List[str]
    allocated: Dict[str, float]
    delivered: Dict[str, int] = field(default_factory=dict)

    def rate(self, flow_id: str) -> float:
        """Delivered packets per second during this phase."""
        span = self.end - self.start
        return self.delivered.get(flow_id, 0) / span if span > 0 else 0.0


class DynamicAllocationExperiment:
    """Run a scenario whose flow set changes over time."""

    def __init__(
        self,
        scenario: Scenario,
        schedules: Sequence[FlowSchedule],
        seed: int = 1,
        alpha: float = 0.001,
        timings: Optional[MacTimings] = None,
        traffic: Optional[TrafficConfig] = None,
    ) -> None:
        by_id = {s.flow_id: s for s in schedules}
        missing = set(scenario.flow_ids) - set(by_id)
        if missing:
            raise ValueError(f"no schedule for flows {sorted(missing)}")
        self.scenario = scenario
        self.schedules = by_id
        self.alpha = alpha
        # The runtime's shares are bit-identical to a cold phase-1 solve
        # of each active set.  Admission is off: the schedule decides
        # membership, not the controller.
        self.runtime = AllocatorRuntime(scenario, RuntimeConfig(
            seed=seed, admission=False,
        ))

        # All queues exist up front; shares start from the full-set
        # allocation and are re-pushed at every membership change.
        initial = self._allocate(scenario.flow_ids)
        per_node: Dict[str, Dict[SubflowId, float]] = {}
        for flow in scenario.flows:
            for sub in flow.subflows:
                per_node.setdefault(sub.sender, {})[sub.sid] = initial[
                    flow.flow_id
                ]

        def factory(node, t):
            return FairBackoffPolicy(node, t, per_node.get(node, {}),
                                     alpha=alpha)

        self.run_ctx = SimulationRun(
            scenario, factory, seed=seed, timings=timings, traffic=traffic
        )
        self.snapshots: List[PhaseSnapshot] = []

    # ------------------------------------------------------------------
    def _allocate(self, active_ids: Sequence[str]) -> Dict[str, float]:
        """Phase 1 on the currently active flow subset (one epoch)."""
        return self.runtime.set_active(active_ids)

    def _push_allocation(self, allocated: Dict[str, float]) -> None:
        """Broadcast the new strategy into every sender's policy."""
        per_node: Dict[str, Dict[SubflowId, float]] = {}
        for flow in self.scenario.flows:
            share = allocated.get(flow.flow_id)
            if share is None:
                continue
            for sub in flow.subflows:
                per_node.setdefault(sub.sender, {})[sub.sid] = share
        for node, shares in per_node.items():
            policy = self.run_ctx.macs[node].policy
            assert isinstance(policy, FairBackoffPolicy)
            policy.update_shares(shares)

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> List[PhaseSnapshot]:
        """Execute the timeline; returns one snapshot per phase."""
        events = {0.0, seconds}
        for sched in self.schedules.values():
            if 0 < sched.start < seconds:
                events.add(sched.start)
            if sched.end is not None and 0 < sched.end < seconds:
                events.add(sched.end)
        timeline = sorted(events)

        sources = {
            src.flow.flow_id: src for src in self.run_ctx.sources
        }
        started = set()
        sim = self.run_ctx.sim
        prev_delivered: Dict[str, int] = {
            fid: 0 for fid in self.scenario.flow_ids
        }

        for begin, end in zip(timeline[:-1], timeline[1:]):
            active = [
                fid for fid, sched in self.schedules.items()
                if sched.active_at(begin)
            ]
            allocated = self._allocate(active)
            self._push_allocation(allocated)
            for fid in active:
                if fid not in started:
                    sources[fid].start()
                    started.add(fid)
            for fid, sched in self.schedules.items():
                if fid in started and not sched.active_at(begin):
                    sources[fid].stop()
            sim.run_until(end * US)
            snap = PhaseSnapshot(
                start=begin, end=end,
                active_flows=sorted(active),
                allocated=allocated,
            )
            for fid in self.scenario.flow_ids:
                now_count = self.run_ctx.metrics.flows[
                    fid
                ].delivered_end_to_end
                snap.delivered[fid] = now_count - prev_delivered[fid]
                prev_delivered[fid] = now_count
            self.snapshots.append(snap)

        self.run_ctx.metrics.duration = seconds * US
        return self.snapshots

    @property
    def metrics(self):
        return self.run_ctx.metrics
