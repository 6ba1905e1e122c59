"""Max-min fair rate allocation via progressive filling.

The paper's related work (Huang & Bensaou, ref. [5]) allocates *max-min
fair* shares to single-hop flows under clique constraints, with no
pre-assigned weights and no end-to-end coordination.  This module
implements that baseline directly with the classic progressive-filling
algorithm:

1. every subflow's rate grows at the same speed per unit weight;
2. when a clique saturates, all its members freeze;
3. repeat with the survivors until everyone is frozen.

For capacity regions defined by such linear "sum over clique <= B"
constraints, progressive filling yields exactly the lexicographically
max-min fair vector, so the result doubles as an independent
cross-check of :func:`repro.lp.lexicographic_maxmin` (with
``fix_objective=False``) — two very different algorithms, one answer.

Two entry points:

* :func:`maxmin_subflow_rates` — per-*subflow* max-min (the [5]
  baseline: each hop is its own flow);
* :func:`maxmin_flow_allocation` — per-*flow* equal-per-hop max-min
  (the same filling run on flow variables with clique coefficients
  ``n_{i,k}``), a weight-aware end-to-end variant for comparison with
  the paper's LP optimum.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from .allocation import AllocationResult
from .contention import ContentionAnalysis
from .model import SubflowId

_EPS = 1e-12


def _progressive_fill(
    variables: Sequence[str],
    weights: Mapping[str, float],
    constraints: Sequence[Tuple[Mapping[str, float], float]],
) -> Dict[str, float]:
    """Generic progressive filling.

    ``constraints`` are (coefficients, bound) rows; every variable grows
    as ``rate = level * weight`` until a constraint it participates in
    becomes tight, at which point it freezes at its current value.
    """
    for v in variables:
        if weights[v] <= 0:
            raise ValueError(f"weight of {v!r} must be positive")
    frozen: Dict[str, float] = {}
    active = set(variables)
    guard = len(variables) + 1
    level = 0.0
    while active and guard:
        guard -= 1
        # Find the smallest level increment that saturates a constraint.
        best_delta = None
        for coeffs, bound in constraints:
            slack = bound - sum(
                coeffs.get(v, 0.0) * frozen.get(v, 0.0)
                for v in coeffs if v in frozen
            ) - sum(
                coeffs.get(v, 0.0) * level * weights[v]
                for v in coeffs if v in active
            )
            growth = sum(
                coeffs.get(v, 0.0) * weights[v]
                for v in coeffs if v in active
            )
            if growth > _EPS:
                delta = slack / growth
                if best_delta is None or delta < best_delta:
                    best_delta = delta
        if best_delta is None:
            raise ValueError(
                "some variable is unconstrained: max-min is unbounded"
            )
        level += max(best_delta, 0.0)
        # Freeze every variable in a now-tight constraint.
        newly_frozen = set()
        for coeffs, bound in constraints:
            used = sum(
                coeffs.get(v, 0.0) * (
                    frozen.get(v, level * weights[v])
                    if v in frozen or v in active else 0.0
                )
                for v in coeffs
            )
            if used >= bound - 1e-9:
                newly_frozen |= {v for v in coeffs if v in active}
        if not newly_frozen:
            newly_frozen = set(active)  # numerical safety net
        for v in newly_frozen:
            frozen[v] = level * weights[v]
        active -= newly_frozen
    return frozen


def maxmin_subflow_rates(
    analysis: ContentionAnalysis,
    capacity: float = None,
    weights: Optional[Mapping[SubflowId, float]] = None,
) -> Dict[SubflowId, float]:
    """[5]-style max-min fair per-subflow rates.

    Each subflow is treated as an independent single-hop flow; clique
    constraints are ``sum of member rates <= B``.  Unweighted by default
    (ref. [5] has no pre-assigned weights).
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    sids = [str(s) for s in analysis.subflow_ids()]
    by_name = {str(s): s for s in analysis.subflow_ids()}
    w = {
        str(s): float((weights or {}).get(s, 1.0))
        for s in analysis.subflow_ids()
    }
    constraints = [
        ({str(s): 1.0 for s in clique}, b)
        for clique in analysis.cliques
    ]
    rates = _progressive_fill(sids, w, constraints)
    return {by_name[name]: rate for name, rate in rates.items()}


def maxmin_flow_allocation(
    analysis: ContentionAnalysis,
    capacity: float = None,
) -> AllocationResult:
    """Weighted end-to-end max-min: equal-per-hop flow shares.

    Progressive filling over flow variables with clique coefficients
    ``n_{i,k}`` and the flows' pre-assigned weights.  Satisfies basic
    fairness by construction (no flow can freeze below its basic share:
    filling only stops at a tight clique, and the basic share is by
    definition feasible for every clique).
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    flow_ids = [f.flow_id for f in analysis.scenario.flows]
    weights = {f.flow_id: f.weight for f in analysis.scenario.flows}
    constraints = []
    for coeffs in analysis.all_coefficients():
        constraints.append(
            ({fid: float(n) for fid, n in coeffs.items()}, b)
        )
    shares = _progressive_fill(flow_ids, weights, constraints)
    return AllocationResult("maxmin-flow", shares, b)


def maxmin_end_to_end_throughput(
    rates: Mapping[SubflowId, float],
    analysis: ContentionAnalysis,
) -> Dict[str, float]:
    """End-to-end throughput implied by per-subflow rates (min per flow)."""
    out: Dict[str, float] = {}
    for flow in analysis.scenario.flows:
        out[flow.flow_id] = min(
            rates[s.sid] for s in flow.subflows
        )
    return out
