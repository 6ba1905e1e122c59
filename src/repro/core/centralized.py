"""Phase 1, centralized form (Sec. IV-A): 2PA-C.

A centralized coordinator (e.g. a base station in a hybrid network):

1. collects a :class:`FlowReport` from every flow source — the flow's
   weight and virtual length (derivable at the source from routing state
   or two-hop neighborhood information, since ``v_i = min(l_i, 3)``);
2. collects per-node subflow observations to assemble the global weighted
   subflow contention graph;
3. enumerates its maximal cliques and solves the Prop. 2 LP;
4. broadcasts the allocation strategy (the *allocated shares*) back to all
   nodes, where phase 2 uses them as scheduling weights.

The numeric result is identical to
:func:`repro.core.allocation.basic_fairness_lp_allocation`; this module
additionally models the information flow so the reporting/collection logic
is testable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .allocation import AllocationResult, basic_fairness_lp_allocation
from .contention import ContentionAnalysis
from .model import Flow, NodeId, Scenario, SubflowId


@dataclass(frozen=True)
class FlowReport:
    """What a flow source reports to the centralized node."""

    flow_id: str
    source: NodeId
    weight: float
    length: int
    virtual_length: int

    @classmethod
    def from_flow(cls, flow: Flow) -> "FlowReport":
        return cls(
            flow_id=flow.flow_id,
            source=flow.source,
            weight=flow.weight,
            length=flow.length,
            virtual_length=flow.virtual_length,
        )


@dataclass(frozen=True)
class SubflowObservation:
    """A node's report of one outgoing subflow (sender-side observation)."""

    reporter: NodeId
    sid: SubflowId
    receiver: NodeId
    weight: float


def collect_flow_reports(scenario: Scenario) -> List[FlowReport]:
    """Every source's report, in flow order."""
    return [FlowReport.from_flow(f) for f in scenario.flows]


def collect_subflow_observations(
    scenario: Scenario,
) -> List[SubflowObservation]:
    """Each node reports the subflows originating from itself (Sec. IV-A)."""
    observations: List[SubflowObservation] = []
    for flow in scenario.flows:
        for sub in flow.subflows:
            observations.append(
                SubflowObservation(
                    reporter=sub.sender,
                    sid=sub.sid,
                    receiver=sub.receiver,
                    weight=sub.weight,
                )
            )
    return observations


class CentralizedCoordinator:
    """The centralized phase-1 engine.

    Usage::

        coordinator = CentralizedCoordinator(scenario)
        result = coordinator.run()          # AllocationResult
        broadcast = coordinator.broadcast() # node -> its subflow shares
    """

    def __init__(self, scenario: Scenario, backend: str = "revised") -> None:
        self.scenario = scenario
        self.backend = backend
        self.reports = collect_flow_reports(scenario)
        self.observations = collect_subflow_observations(scenario)
        self.analysis = ContentionAnalysis(scenario)
        self._result: AllocationResult = None

    def run(self) -> AllocationResult:
        """Solve the global Prop. 2 LP over each contending flow group."""
        self._result = basic_fairness_lp_allocation(
            self.analysis, backend=self.backend
        )
        return self._result

    @property
    def result(self) -> AllocationResult:
        if self._result is None:
            self.run()
        return self._result

    def broadcast(self) -> Dict[NodeId, Dict[SubflowId, float]]:
        """Allocation strategy delivered to every node.

        A node receives the allocated share of every subflow it transmits
        (sender-side scheduling state for phase 2).
        """
        result = self.result
        per_node: Dict[NodeId, Dict[SubflowId, float]] = {}
        for flow in self.scenario.flows:
            for sub in flow.subflows:
                per_node.setdefault(sub.sender, {})[sub.sid] = result.share(
                    flow.flow_id
                )
        return per_node

    def allocated_shares(self) -> Dict[str, float]:
        """Flow-id -> allocated share (the phase-2 weight factors)."""
        return dict(self.result.shares)


def run_centralized(
    scenario: Scenario, backend: str = "revised"
) -> AllocationResult:
    """One-shot convenience wrapper around the coordinator."""
    return CentralizedCoordinator(scenario, backend).run()
