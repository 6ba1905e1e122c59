"""Schedule feasibility of allocation strategies (Sec. III-B, Fig. 5).

A set of per-subflow rates is *schedulable* when the channel can be
time-shared among independent sets of the subflow contention graph (sets
that may transmit concurrently) so that each subflow ``s`` transmits for at
least a fraction ``r_s / B`` of the time.  Formally, with maximal
independent sets ``S_1..S_p`` and time fractions ``t_1..t_p``:

    minimize  Σ t_q   s.t.   Σ_{q: s ∈ S_q} t_q >= r_s / B,  t_q >= 0

The allocation is feasible iff the optimum is <= 1.  The paper's pentagon
example (Fig. 5) is the canonical case where the Prop. 1 clique bound
(B/2 per flow) yields a fractional schedule length of 5/4 > 1 — cliques
are necessary but not sufficient conditions for schedulability.

When an allocation is infeasible, the paper reuses it as a set of *weight
factors* ("allocated shares") to drive phase 2; :func:`max_feasible_scaling`
computes how far a given share vector can actually be realized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..graphs import Graph, maximal_independent_sets
from ..lp import LinearProgram, solve
from .contention import ContentionAnalysis
from .model import SubflowId


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a schedulability check."""

    feasible: bool
    schedule_length: float            # minimal Σ t_q (<= 1 means feasible)
    schedule: Dict[FrozenSet, float]  # independent set -> time fraction

    @property
    def utilization(self) -> float:
        """Fraction of channel time the schedule needs."""
        return self.schedule_length


def check_schedulability(
    graph: Graph,
    subflow_rates: Mapping[SubflowId, float],
    capacity: float = 1.0,
    backend: str = "revised",
) -> FeasibilityReport:
    """Fractional-schedule feasibility of per-subflow rates.

    ``graph`` is the subflow contention graph; every key of
    ``subflow_rates`` must be one of its vertices.
    """
    for sid in subflow_rates:
        if not graph.has_vertex(sid):
            raise KeyError(f"subflow {sid} not in contention graph")
    demands = {
        sid: rate / capacity for sid, rate in subflow_rates.items()
        if rate > 0
    }
    if not demands:
        return FeasibilityReport(True, 0.0, {})

    ind_sets = maximal_independent_sets(graph)
    # LP in maximization form: maximize -Σ t_q.
    lp = LinearProgram()
    set_vars: List[Tuple[str, FrozenSet]] = []
    for q, s in enumerate(ind_sets):
        var = f"t_{q}"
        lp.add_variable(var, objective_coeff=-1.0)
        set_vars.append((var, s))
    for sid, demand in demands.items():
        # Σ_{q: sid ∈ S_q} t_q >= demand   <=>   -Σ ... <= -demand
        coeffs = {
            var: -1.0 for var, s in set_vars if sid in s
        }
        if not coeffs:
            # Vertex in no independent set is impossible ({sid} itself is
            # independent), but guard against inconsistent inputs.
            return FeasibilityReport(False, float("inf"), {})
        lp.add_constraint(coeffs, -demand, label=f"demand:{sid}")
    sol = solve(lp, backend)
    if not sol.is_optimal:
        return FeasibilityReport(False, float("inf"), {})
    length = -sol.objective
    schedule = {
        s: sol.values.get(var, 0.0)
        for var, s in set_vars
        if sol.values.get(var, 0.0) > 1e-12
    }
    return FeasibilityReport(length <= 1.0 + 1e-9, length, schedule)


def check_allocation_schedulability(
    analysis: ContentionAnalysis,
    flow_shares: Mapping[str, float],
    capacity: float = None,
    backend: str = "revised",
) -> FeasibilityReport:
    """Schedulability of an equal-per-hop flow allocation.

    Expands flow shares into per-subflow rates (each hop of flow ``i``
    demands ``r̂_i``) and runs :func:`check_schedulability`.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    rates: Dict[SubflowId, float] = {}
    for flow in analysis.scenario.flows:
        share = flow_shares.get(flow.flow_id, 0.0)
        for sub in flow.subflows:
            rates[sub.sid] = share
    return check_schedulability(analysis.graph, rates, b, backend)


def max_feasible_scaling(
    graph: Graph,
    subflow_rates: Mapping[SubflowId, float],
    capacity: float = 1.0,
    backend: str = "revised",
) -> float:
    """Largest λ such that ``λ · rates`` is schedulable.

    For a feasible allocation λ >= 1.  For the pentagon's B/2 shares,
    λ = 4/5: the realizable uniform share is 2B/5, not B/2.
    """
    report = check_schedulability(graph, subflow_rates, capacity, backend)
    if report.schedule_length <= 0:
        return float("inf")
    return 1.0 / report.schedule_length
