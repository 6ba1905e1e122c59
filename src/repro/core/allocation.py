"""Allocation strategies from Secs. II-D and III.

Four strategies, in increasing sophistication:

1. :func:`naive_allocation` — Eq. (2): split B over all subflows using true
   hop counts (ignores intra-flow spatial reuse).
2. :func:`basic_allocation` — basic shares using virtual lengths.
3. :func:`fairness_constrained_allocation` — the Prop. 1 point: shares
   exactly proportional to weights, scaled until the tightest clique
   saturates (``r̂_i = w_i B / ω_Ω``).
4. :func:`basic_fairness_lp_allocation` — Prop. 2: the LP
   ``max Σ r̂_i  s.t.  Σ_i n_{i,k} r̂_i <= B,  r̂_i >= basic_i``, the
   paper's optimal strategy under basic fairness.

Plus the *single-hop* optimum used by the two-tier baseline comparison:
:func:`single_hop_optimal_allocation` maximizes aggregate per-subflow
throughput with per-subflow basic shares, refined max-min fair among
optima — reproducing the (3B/4, B/4, 3B/8, 3B/8) example of Sec. III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..lp import LinearProgram, LPSolution, lexicographic_maxmin, solve
from .contention import ContentionAnalysis
from .fairness_defs import basic_shares, naive_subflow_shares
from .model import Flow, SubflowId


@dataclass
class AllocationResult:
    """Per-flow equal-per-hop shares, with provenance for reporting."""

    strategy: str
    shares: Dict[str, float]                 # flow id -> r̂_i
    capacity: float
    lp: Optional[LinearProgram] = None
    lp_solution: Optional[LPSolution] = None
    subflow_shares: Dict[SubflowId, float] = field(default_factory=dict)

    @property
    def total_effective_throughput(self) -> float:
        """Σ u_i = Σ r̂_i for equal-per-hop allocations."""
        return float(sum(self.shares.values()))

    def share(self, flow_id: str) -> float:
        return self.shares[flow_id]

    def normalized(self) -> Dict[str, float]:
        """Shares as fractions of B."""
        return {f: s / self.capacity for f, s in self.shares.items()}


def naive_allocation(
    analysis: ContentionAnalysis, capacity: float = None
) -> AllocationResult:
    """Eq. (2): B split across all subflows by true hop count."""
    b = capacity if capacity is not None else analysis.scenario.capacity
    shares: Dict[str, float] = {}
    for group in analysis.groups:
        shares.update(naive_subflow_shares(group, b))
    return AllocationResult("naive-subflow", shares, b)


def basic_allocation(
    analysis: ContentionAnalysis, capacity: float = None
) -> AllocationResult:
    """Basic shares with virtual lengths (Sec. II-D)."""
    b = capacity if capacity is not None else analysis.scenario.capacity
    shares: Dict[str, float] = {}
    for group in analysis.groups:
        shares.update(basic_shares(group, b))
    return AllocationResult("basic-share", shares, b)


def fairness_constrained_allocation(
    analysis: ContentionAnalysis, capacity: float = None
) -> AllocationResult:
    """Prop. 1 allocation: weight-proportional shares at the clique limit.

    Each contending flow group scales independently; within a group,
    ``r̂_i = w_i B / ω_Ω(group)``.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    shares: Dict[str, float] = {}
    for group in analysis.groups:
        group_ids = {f.flow_id for f in group}
        group_graph = analysis.graph.subgraph(
            [v for v in analysis.graph if v.flow in group_ids]
        )
        weights = {v: float(group_graph.attr(v, "weight", 1.0))
                   for v in group_graph}
        from ..graphs import weighted_clique_number

        omega = weighted_clique_number(group_graph, weights)
        if omega <= 0:
            raise ValueError("empty contention group")
        for f in group:
            shares[f.flow_id] = f.weight * b / omega
    return AllocationResult("fairness-constrained", shares, b)


def build_basic_fairness_lp(
    analysis: ContentionAnalysis,
    group: Sequence[Flow],
    capacity: float,
) -> LinearProgram:
    """Assemble the Prop. 2 LP for one contending flow group.

    Variables are named ``r_<flow_id>``; one capacity constraint per
    maximal clique touching the group, one lower bound per flow.
    """
    lp = LinearProgram()
    group_ids = [f.flow_id for f in group]
    group_set = set(group_ids)
    for fid in group_ids:
        lp.add_variable(f"r_{fid}", objective_coeff=1.0)
    for k, (coeffs, members) in enumerate(analysis.clique_terms):
        if not set(coeffs) & group_set:
            continue
        lp.add_constraint(
            {f"r_{fid}": float(n) for fid, n in coeffs.items()
             if fid in group_set},
            capacity,
            label=f"clique-{k}:{members}",
        )
    basic = basic_shares(group, capacity)
    for fid in group_ids:
        lp.set_lower_bound(f"r_{fid}", basic[fid])
    return lp


def basic_fairness_lp_allocation(
    analysis: ContentionAnalysis,
    capacity: float = None,
    backend: str = "revised",
    refine_maxmin: bool = True,
) -> AllocationResult:
    """Prop. 2: maximize total effective throughput under basic fairness.

    This is the centralized phase-1 computation of 2PA.  Each contending
    flow group is solved independently.  The LP's optimum may be attained
    on a whole face (Fig. 6's LP is an example: r̂_2 + r̂_3 = B admits any
    split with r̂_2 in [B/8, B/3]); ``refine_maxmin`` selects the
    weighted-max-min-fair vertex among the optima, which is the solution
    the paper reports.  Raises ``RuntimeError`` if any group LP is
    infeasible — impossible in theory (basic shares are always feasible,
    Sec. III-B), so it would indicate a modelling bug.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    shares: Dict[str, float] = {}
    last_lp: Optional[LinearProgram] = None
    last_sol: Optional[LPSolution] = None
    for group in analysis.groups:
        lp = build_basic_fairness_lp(analysis, group, b)
        if refine_maxmin:
            weights = {f"r_{f.flow_id}": f.weight for f in group}
            sol = lexicographic_maxmin(lp, weights, fix_objective=True,
                                       backend=backend)
        else:
            sol = solve(lp, backend)
        if not sol.is_optimal:
            raise RuntimeError(
                f"basic-fairness LP unexpectedly {sol.status}:\n{lp.pretty()}"
            )
        for f in group:
            shares[f.flow_id] = sol[f"r_{f.flow_id}"]
        last_lp, last_sol = lp, sol
    return AllocationResult(
        "basic-fairness-lp", shares, b, lp=last_lp, lp_solution=last_sol
    )


def single_hop_optimal_allocation(
    analysis: ContentionAnalysis,
    capacity: float = None,
    backend: str = "revised",
) -> AllocationResult:
    """Two-tier analysis: per-*subflow* shares, single-hop objective.

    maximize ``Σ_{i,j} r_{i.j}`` subject to per-clique capacity and
    per-subflow basic shares ``r_{i.j} >= w_{i.j} B / Σ w v`` computed over
    subflows... The paper's two-tier guarantees each *subflow* a basic
    share of ``w_{i.j} B / ω'`` where in the Fig. 1 example all four
    subflows receive B/4 — i.e. the basic share denominator counts each
    subflow individually within its group, with intra-flow reuse applied at
    the subflow level (each subflow is its own 1-hop flow: v = 1).

    Among throughput-optimal points the allocation is refined to be
    weighted max-min fair, matching the (3B/4, B/4, 3B/8, 3B/8) example.

    The resulting end-to-end flow throughputs (min over hops) are reported
    in ``shares``; raw subflow shares are in ``subflow_shares``.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    flow_by_id = {f.flow_id: f for f in analysis.scenario.flows}
    subflow_shares: Dict[SubflowId, float] = {}

    for group in analysis.groups:
        group_ids = {f.flow_id for f in group}
        members: List[SubflowId] = [
            s.sid for f in group for s in f.subflows
        ]
        lp = LinearProgram()
        weights: Dict[str, float] = {}
        for sid in members:
            var = f"r_{sid}"
            lp.add_variable(var, objective_coeff=1.0)
            weights[var] = flow_by_id[sid.flow].weight
        for k, clique in enumerate(analysis.cliques):
            touched = [sid for sid in clique if sid.flow in group_ids]
            if not touched:
                continue
            lp.add_constraint(
                {f"r_{sid}": 1.0 for sid in touched},
                b,
                label=f"clique-{k}",
            )
        # Per-subflow basic shares: every subflow is a 1-hop flow (v = 1).
        denom = sum(f.weight * f.length for f in group)
        for sid in members:
            lp.set_lower_bound(
                f"r_{sid}", flow_by_id[sid.flow].weight * b / denom
            )
        sol = lexicographic_maxmin(lp, weights, fix_objective=True,
                                   backend=backend)
        if not sol.is_optimal:
            raise RuntimeError(
                f"single-hop LP unexpectedly {sol.status}:\n{lp.pretty()}"
            )
        for sid in members:
            subflow_shares[sid] = sol[f"r_{sid}"]

    flow_throughputs = {
        f.flow_id: min(subflow_shares[s.sid] for s in f.subflows)
        for f in analysis.scenario.flows
    }
    result = AllocationResult(
        "single-hop-optimal", flow_throughputs, b,
        subflow_shares=subflow_shares,
    )
    return result


def total_single_hop_throughput(result: AllocationResult) -> float:
    """Aggregate per-subflow throughput (prior work's objective)."""
    if result.subflow_shares:
        return float(sum(result.subflow_shares.values()))
    raise ValueError("allocation has no per-subflow shares")


def feasible_fairness_allocation(
    analysis: ContentionAnalysis,
    capacity: float = None,
    backend: str = "revised",
) -> AllocationResult:
    """The *achievable* fairness-constrained optimum.

    Prop. 1's clique bound ``w_i B / ω_Ω`` is not always schedulable (the
    pentagon, Fig. 5).  This strategy keeps shares exactly proportional
    to weights but scales them to the largest factor a fractional
    schedule (time-sharing of independent sets) can actually serve —
    yielding 2B/5 per flow on the pentagon instead of the unattainable
    B/2.  For clique-tight topologies (Figs. 1, 6) it coincides with the
    Prop. 1 allocation.
    """
    from .feasibility import max_feasible_scaling

    b = capacity if capacity is not None else analysis.scenario.capacity
    bound = fairness_constrained_allocation(analysis, b)
    rates = {
        sub.sid: bound.share(flow.flow_id)
        for flow in analysis.scenario.flows
        for sub in flow.subflows
    }
    scale = max_feasible_scaling(analysis.graph, rates, b, backend)
    scale = min(scale, 1.0)
    shares = {fid: share * scale for fid, share in bound.shares.items()}
    return AllocationResult("feasible-fairness", shares, b)
