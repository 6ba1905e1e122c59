"""The three compared systems, assembled end to end.

Each builder turns a :class:`~repro.core.model.Scenario` into a ready
:class:`~repro.sched.runner.SimulationRun`:

* :func:`build_80211` — plain IEEE 802.11 DCF (no allocation layer);
* :func:`build_two_tier` — Luo et al.'s two-tier fair scheduling,
  reproduced as: per-subflow shares from the single-hop throughput
  optimization (Sec. III's comparison), realized by the tag-based fair
  backoff scheduler;
* :func:`build_2pa` — the paper's two-phase algorithm; phase 1 runs either
  centralized (``2PA-C``) or distributed (``2PA-D``), and phase 2 uses the
  same fair backoff scheduler with the resulting equal-per-hop shares.

Every builder also returns the allocation it computed (``None`` for
802.11), so experiments can report both the analytic shares and the
simulated throughput side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.allocation import (
    AllocationResult,
    basic_fairness_lp_allocation,
    single_hop_optimal_allocation,
)
from ..core.contention import ContentionAnalysis
from ..core.distributed import run_distributed
from ..core.model import NodeId, Scenario, SubflowId
from ..mac import MacTimings
from ..mac.policies import DcfPolicy, FairBackoffPolicy
from ..sim import Tracer, NULL_TRACER
from .runner import SimulationRun, TrafficConfig, subflow_shares_by_node

#: Default strictness knob for the tag-based backoff (see DESIGN.md on
#: units; the paper's 0.0001 is in ns-2 tag units).
DEFAULT_ALPHA = 0.001


@dataclass
class SystemBuild:
    """A runnable simulation plus the allocation that parameterizes it."""

    name: str
    run: SimulationRun
    allocation: Optional[AllocationResult]
    subflow_shares: Optional[Dict[SubflowId, float]]


def build_80211(
    scenario: Scenario,
    seed: int = 1,
    timings: Optional[MacTimings] = None,
    traffic: Optional[TrafficConfig] = None,
    tracer: Tracer = NULL_TRACER,
) -> SystemBuild:
    """Standard 802.11: one interface queue per node, BEB backoff."""

    def factory(node: NodeId, t: MacTimings) -> DcfPolicy:
        return DcfPolicy(node, t)

    run = SimulationRun(scenario, factory, seed=seed, timings=timings,
                        traffic=traffic, tracer=tracer)
    return SystemBuild("802.11", run, None, None)


def _fair_backoff_build(
    name: str,
    scenario: Scenario,
    subflow_shares: Dict[SubflowId, float],
    allocation: Optional[AllocationResult],
    seed: int,
    alpha: float,
    timings: Optional[MacTimings],
    traffic: Optional[TrafficConfig],
    tracer: Tracer,
) -> SystemBuild:
    per_node = subflow_shares_by_node(scenario, subflow_shares)

    def factory(node: NodeId, t: MacTimings) -> FairBackoffPolicy:
        return FairBackoffPolicy(node, t, per_node.get(node, {}),
                                 alpha=alpha)

    run = SimulationRun(scenario, factory, seed=seed, timings=timings,
                        traffic=traffic, tracer=tracer)
    return SystemBuild(name, run, allocation, subflow_shares)


def build_two_tier(
    scenario: Scenario,
    seed: int = 1,
    alpha: float = DEFAULT_ALPHA,
    timings: Optional[MacTimings] = None,
    traffic: Optional[TrafficConfig] = None,
    tracer: Tracer = NULL_TRACER,
    analysis: Optional[ContentionAnalysis] = None,
) -> SystemBuild:
    """Two-tier baseline: single-hop-optimal subflow shares + tag backoff."""
    analysis = analysis or ContentionAnalysis(scenario)
    allocation = single_hop_optimal_allocation(analysis)
    shares = dict(allocation.subflow_shares)
    return _fair_backoff_build(
        "two-tier", scenario, shares, allocation, seed, alpha, timings,
        traffic, tracer,
    )


def build_2pa(
    scenario: Scenario,
    mode: str = "centralized",
    seed: int = 1,
    alpha: float = DEFAULT_ALPHA,
    timings: Optional[MacTimings] = None,
    traffic: Optional[TrafficConfig] = None,
    tracer: Tracer = NULL_TRACER,
    analysis: Optional[ContentionAnalysis] = None,
) -> SystemBuild:
    """The paper's 2PA: phase-1 allocation + phase-2 fair backoff.

    ``mode`` selects the phase-1 algorithm: ``"centralized"`` (2PA-C,
    the Prop. 2 LP) or ``"distributed"`` (2PA-D, local LPs).
    """
    if mode == "centralized":
        analysis = analysis or ContentionAnalysis(scenario)
        allocation = basic_fairness_lp_allocation(analysis)
        name = "2PA-C"
    elif mode == "distributed":
        allocation = run_distributed(scenario)
        name = "2PA-D"
    else:
        raise ValueError(f"unknown 2PA mode {mode!r}")
    # Phase 2's weights: equal-per-hop subflow shares (the allocated
    # shares become the new subflow weights, Sec. IV-C).
    shares: Dict[SubflowId, float] = {}
    for flow in scenario.flows:
        for sub in flow.subflows:
            shares[sub.sid] = allocation.share(flow.flow_id)
    return _fair_backoff_build(
        name, scenario, shares, allocation, seed, alpha, timings, traffic,
        tracer,
    )


def build_maxmin(
    scenario: Scenario,
    seed: int = 1,
    alpha: float = DEFAULT_ALPHA,
    timings: Optional[MacTimings] = None,
    traffic: Optional[TrafficConfig] = None,
    tracer: Tracer = NULL_TRACER,
    analysis: Optional[ContentionAnalysis] = None,
) -> SystemBuild:
    """Max-min baseline (Huang & Bensaou, the paper's ref. [5]).

    Per-subflow max-min fair rates from progressive filling — no
    pre-assigned weights, no end-to-end coordination — realized with the
    same tag-based scheduler as the other allocation-driven systems.
    Like two-tier, it can over-serve upstream hops relative to
    downstream bottlenecks (Fig. 1: F1.1 at 2B/3 vs F1.2 at B/3).
    """
    from ..core.maxmin_rates import maxmin_subflow_rates

    analysis = analysis or ContentionAnalysis(scenario)
    rates = maxmin_subflow_rates(analysis)
    allocation = AllocationResult(
        "maxmin-subflow",
        {
            f.flow_id: min(rates[s.sid] for s in f.subflows)
            for f in scenario.flows
        },
        scenario.capacity,
        subflow_shares=dict(rates),
    )
    return _fair_backoff_build(
        "maxmin", scenario, dict(rates), allocation, seed, alpha,
        timings, traffic, tracer,
    )


SYSTEM_BUILDERS = {
    "802.11": build_80211,
    "two-tier": build_two_tier,
    "maxmin": build_maxmin,
    "2pa-c": lambda scenario, **kw: build_2pa(scenario, "centralized", **kw),
    "2pa-d": lambda scenario, **kw: build_2pa(scenario, "distributed", **kw),
}
