"""Paper-invariant checkers (Secs. II–III).

Each checker takes a scenario's :class:`~repro.core.contention.ContentionAnalysis`
plus an allocation (flow-id -> share) and asserts one property the paper
proves or assumes:

==========================  ============================================
checker                     paper source
==========================  ============================================
``clique_capacity``         Eq. (6): ``Σ_i n_{i,k} r̂_i <= B`` per
                            maximal clique ``Ω_k``
``basic_fairness``          Sec. II-D: every flow gets at least its
                            basic share ``w_i B / Σ_j w_j v_j``
``fairness_constraint``     Sec. II-C: ``|r̂_i/w_i − r̂_j/w_j| < ε``
                            within each contending flow group
``prop1_bound``             Prop. 1: group throughput ``<= (Σ w_i) B/ω_Ω``
                            under the fairness constraint
``virtual_length``          Sec. II-D: ``v_i = min(l_i, 3)``, and for
                            shortcut-free flows no clique holds more than
                            ``v_i`` subflows of flow ``i``
==========================  ============================================

Checkers return a :class:`CheckResult` rather than raising, so the fuzzer
can aggregate, count, and shrink on them; ``assert_all`` converts to a
hard failure for use inside tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..core.contention import ContentionAnalysis
from ..core.fairness_defs import basic_shares
from ..core.model import Scenario

__all__ = [
    "CheckResult",
    "assert_all",
    "check_clique_capacity",
    "check_basic_fairness",
    "check_fairness_constraint",
    "check_prop1_bound",
    "check_virtual_length_consistency",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    details: str = ""
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def assert_all(results: Sequence[CheckResult]) -> None:
    """Raise ``AssertionError`` listing every failed check."""
    failed = [r for r in results if not r.ok]
    if failed:
        lines = [f"{r.name}: {r.details or 'failed'}" for r in failed]
        for r in failed:
            lines.extend(f"  - {v}" for v in r.violations)
        raise AssertionError(
            f"{len(failed)} invariant(s) violated:\n" + "\n".join(lines)
        )


def check_clique_capacity(
    analysis: ContentionAnalysis,
    shares: Mapping[str, float],
    capacity: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Eq. (6): every maximal clique's load fits within B."""
    b = capacity if capacity is not None else analysis.scenario.capacity
    violations: List[str] = []
    # Each term's label is its members' sorted names joined by "+", so
    # no clique's subflow set is built to name it.
    terms = analysis.clique_terms
    for k, (coeffs, members) in enumerate(terms):
        load = sum(n * shares.get(fid, 0.0) for fid, n in coeffs.items())
        if load > b + tol:
            violations.append(
                f"clique {k} ({members}): load {load:.9g} > B={b:g}"
            )
    return CheckResult(
        "clique_capacity",
        not violations,
        f"{len(violations)}/{len(terms)} cliques overloaded"
        if violations else "",
        violations,
    )


def check_basic_fairness(
    analysis: ContentionAnalysis,
    shares: Mapping[str, float],
    capacity: Optional[float] = None,
    tol: float = 1e-7,
) -> CheckResult:
    """Sec. II-D: every flow receives at least its basic share."""
    b = capacity if capacity is not None else analysis.scenario.capacity
    violations: List[str] = []
    for group in analysis.groups:
        basic = basic_shares(group, b)
        for flow in group:
            got = shares.get(flow.flow_id, 0.0)
            if got < basic[flow.flow_id] - tol:
                violations.append(
                    f"flow {flow.flow_id}: {got:.9g} < basic "
                    f"{basic[flow.flow_id]:.9g}"
                )
    return CheckResult(
        "basic_fairness",
        not violations,
        f"{len(violations)} flow(s) below basic share"
        if violations else "",
        violations,
    )


def check_fairness_constraint(
    analysis: ContentionAnalysis,
    shares: Mapping[str, float],
    epsilon: float = 1e-7,
) -> CheckResult:
    """Sec. II-C: shares proportional to weights within each group."""
    violations: List[str] = []
    for group in analysis.groups:
        normalized = {
            f.flow_id: shares.get(f.flow_id, 0.0) / f.weight for f in group
        }
        spread = max(normalized.values()) - min(normalized.values())
        if spread > epsilon:
            violations.append(
                f"group [{','.join(f.flow_id for f in group)}]: "
                f"max |r̂_i/w_i − r̂_j/w_j| = {spread:.9g} > ε={epsilon:g}"
            )
    return CheckResult(
        "fairness_constraint",
        not violations,
        f"{len(violations)} group(s) not weight-proportional"
        if violations else "",
        violations,
    )


def check_prop1_bound(
    analysis: ContentionAnalysis,
    shares: Mapping[str, float],
    capacity: Optional[float] = None,
    tol: float = 1e-7,
) -> CheckResult:
    """Prop. 1: per-group throughput at most ``(Σ w_i) B / ω_Ω(group)``.

    Only meaningful for allocations satisfying the fairness constraint
    (the proposition's hypothesis); the callers gate accordingly.
    """
    from ..graphs import weighted_clique_number

    b = capacity if capacity is not None else analysis.scenario.capacity
    violations: List[str] = []
    for group in analysis.groups:
        group_ids = {f.flow_id for f in group}
        group_graph = analysis.graph.subgraph(
            [v for v in analysis.graph if v.flow in group_ids]
        )
        weights = {
            v: float(group_graph.attr(v, "weight", 1.0)) for v in group_graph
        }
        omega = weighted_clique_number(group_graph, weights)
        if omega <= 0:
            continue
        bound = sum(f.weight for f in group) * b / omega
        total = sum(shares.get(f.flow_id, 0.0) for f in group)
        if total > bound + tol:
            violations.append(
                f"group [{','.join(f.flow_id for f in group)}]: total "
                f"{total:.9g} > (Σw)B/ω_Ω = {bound:.9g}"
            )
    return CheckResult(
        "prop1_bound",
        not violations,
        f"{len(violations)} group(s) above the Prop. 1 bound"
        if violations else "",
        violations,
    )


def check_virtual_length_consistency(
    scenario: Scenario,
    analysis: Optional[ContentionAnalysis] = None,
) -> CheckResult:
    """Sec. II-D: ``v_i = min(l_i, 3)`` and its clique-level consequence.

    For shortcut-free flows, no maximal clique of the contention graph may
    contain more than ``v_i`` subflows of flow ``i`` (at most three
    consecutive hops of a shortcut-free path are mutually within range —
    the fact that justifies the virtual-length definition).  Flows *with*
    shortcuts are exempt from the clique-level clause.
    """
    violations: List[str] = []
    for flow in scenario.flows:
        expected = min(flow.length, 3)
        if flow.virtual_length != expected:
            violations.append(
                f"flow {flow.flow_id}: v={flow.virtual_length} != "
                f"min({flow.length}, 3)"
            )
    if analysis is not None:
        shortcut_free = {
            f.flow_id for f in scenario.flows
            if not scenario.network.has_shortcut(f)
        }
        for k, coeffs in enumerate(analysis.all_coefficients()):
            for fid, n in coeffs.items():
                if fid in shortcut_free:
                    v = scenario.flow(fid).virtual_length
                    if n > v:
                        violations.append(
                            f"clique {k}: {n} subflows of shortcut-free "
                            f"flow {fid} > v={v}"
                        )
    return CheckResult(
        "virtual_length",
        not violations,
        f"{len(violations)} virtual-length violation(s)"
        if violations else "",
        violations,
    )
