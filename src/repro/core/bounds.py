"""Proposition 1: throughput upper bound under the fairness constraint.

With shares proportional to weights (``r̂_i = w_i r̂_0``), every maximal
clique ``Ω_k`` of the subflow contention graph imposes
``ω_{Ω_k} r̂_0 <= B``; hence ``r̂_0 <= B/ω_Ω`` with ``ω_Ω`` the weighted
clique number, and the total effective throughput is bounded by
``(Σ w_i) B / ω_Ω``.  The bound is tight when a feasible schedule exists,
but not always (the pentagon of Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .contention import ContentionAnalysis
from .model import Flow


@dataclass(frozen=True)
class FairnessBound:
    """Proposition-1 quantities for one contending flow group."""

    weighted_clique_number: float     # ω_Ω
    per_unit_share: float             # B / ω_Ω (channel share per unit weight)
    flow_shares: Dict[str, float]     # w_i * B / ω_Ω
    total_effective_throughput: float # Σ w_i B / ω_Ω

    def share(self, flow_id: str) -> float:
        return self.flow_shares[flow_id]


def fairness_upper_bound(
    analysis: ContentionAnalysis, capacity: float = None
) -> FairnessBound:
    """Compute Proposition 1's bound from a contention analysis.

    Raises ``ValueError`` when the scenario has no subflows (``ω_Ω = 0``).
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    omega = analysis.weighted_clique_number()
    if omega <= 0:
        raise ValueError("weighted clique number is zero — no subflows")
    per_unit = b / omega
    shares = {
        f.flow_id: f.weight * per_unit for f in analysis.scenario.flows
    }
    return FairnessBound(
        weighted_clique_number=omega,
        per_unit_share=per_unit,
        flow_shares=shares,
        total_effective_throughput=sum(shares.values()),
    )


def bound_vs_basic_consistency(
    analysis: ContentionAnalysis, capacity: float = None
) -> bool:
    """Sanity relation below Prop. 1: ``ω_Ω <= Σ w_i v_i``.

    In the maximal clique each flow contributes at most ``v_i`` subflows,
    so the bound's denominator never exceeds the basic-share denominator —
    i.e. the Prop. 1 per-flow share always dominates the basic share.
    """
    flows: Sequence[Flow] = analysis.scenario.flows
    omega = analysis.weighted_clique_number()
    return omega <= sum(f.weight * f.virtual_length for f in flows) + 1e-9


def max_subflows_per_clique(analysis: ContentionAnalysis) -> Dict[str, int]:
    """``max_k n_{i,k}`` per flow: most same-flow subflows in one clique.

    For shortcut-free flows this never exceeds the virtual length (at most
    3 consecutive hops are mutually in range); exposed for tests and
    diagnostics.
    """
    worst: Dict[str, int] = {
        f.flow_id: 0 for f in analysis.scenario.flows
    }
    for coeffs in analysis.all_coefficients():
        for flow_id, n in coeffs.items():
            worst[flow_id] = max(worst[flow_id], n)
    return worst
