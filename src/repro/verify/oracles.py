"""Differential oracles: independent implementations to check the stack.

One oracle per from-scratch algorithm the reproduction's claims rest on:

* **Cliques** — :func:`brute_force_maximal_cliques` enumerates every
  clique by canonical extension and keeps the maximal ones; agreement with
  the Bron–Kerbosch implementation (including the deterministic ordering)
  certifies :func:`repro.graphs.maximal_cliques` on that graph.
* **LP** — :func:`lp_objective_matches` compares the float simplex against
  the exact ``Fraction`` reference solver of :mod:`repro.verify.exact_lp`
  (and ``scipy.optimize.linprog`` when importable).
* **2PA-D vs 2PA-C** — :func:`check_2pad_against_centralized` recomputes
  the gossip fixpoint independently, checks that every flow's source ends
  up holding *every* global clique constraint involving its flow, and —
  whenever each source's local view covers its whole contending group —
  demands bit-for-bit (1e-6) agreement with the centralized solution.
* **Max-min certificate vs probe** — :func:`maxmin_certificate_mismatches`
  replays the lexicographic max-min ladder and probes every target,
  including the flows the raise-floor LP's prices certify saturated; a
  certified flow its probe can raise, or a round whose frozen set the
  certificate changes, is a failure.
* **Warm session vs cold ladder** — :func:`maxmin_session_mismatches`
  runs :func:`repro.lp.lexicographic_maxmin` on the ``revised`` backend's
  warm session and compares it with :func:`maxmin_reference`, the cold
  dense ladder with certification off (every target probed): statuses
  must be equal and shares within 1e-9.
* **Runtime vs cold 2PA-C** — :func:`cold_journal_mismatches` re-solves
  every committed epoch of an :class:`~repro.resilience.runtime.AllocatorRuntime`
  journal monolithically from a cold contention analysis; the runtime's
  incremental, component-sharded, memoized pipeline must match it
  bitwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from ..core.allocation import basic_fairness_lp_allocation
from ..core.contention import ContentionAnalysis
from ..core.distributed import DistributedAllocator
from ..core.model import Scenario
from ..graphs import Graph, maximal_cliques
from ..graphs.cliques import clique_vertex_order, sort_cliques
from ..graphs.graph import Vertex
from ..lp.maxmin import (_ColdSteps, _ladder, _optimal_face, _probe,
                         _raise_floor, _select, _weights,
                         lexicographic_maxmin)
from ..lp.problem import Constraint, LinearProgram, LPSolution
from ..lp.solvers import solve
from ..obs.trace import NULL_SPAN
from .exact_lp import ExactSolution, solve_exact

__all__ = [
    "BruteForceLimit",
    "brute_force_maximal_cliques",
    "cliques_agree",
    "lp_objective_matches",
    "check_2pad_against_centralized",
    "maxmin_certificate_mismatches",
    "maxmin_exact",
    "maxmin_reference",
    "maxmin_session_mismatches",
    "cold_journal_mismatches",
]

#: Vertex count beyond which the exhaustive clique enumeration is skipped
#: (a complete graph on n vertices has 2^n cliques to walk).
DEFAULT_BRUTE_FORCE_MAX_VERTICES = 14


class BruteForceLimit(Exception):
    """Raised when a graph is too large for exhaustive enumeration."""


def brute_force_maximal_cliques(
    graph: Graph,
    max_vertices: int = DEFAULT_BRUTE_FORCE_MAX_VERTICES,
) -> List[FrozenSet[Vertex]]:
    """All maximal cliques by exhaustive canonical-order enumeration.

    Grows every clique along a fixed vertex order (each extension only adds
    later vertices adjacent to all current members), then filters to
    maximal ones via a common-neighborhood test.  Exponential and proudly
    so — it shares no code or algorithmic idea with Bron–Kerbosch, which is
    what makes it an oracle.  Output ordering matches
    :func:`repro.graphs.maximal_cliques` so results compare with ``==``.
    """
    n = graph.num_vertices()
    if n > max_vertices:
        raise BruteForceLimit(
            f"{n} vertices > brute-force cap {max_vertices}"
        )
    if n == 0:
        return []
    order = clique_vertex_order(graph)
    rank = {v: i for i, v in enumerate(order)}
    adj = {v: graph.neighbors(v) for v in order}

    found: List[FrozenSet[Vertex]] = []

    def extend(members: List[Vertex], candidates: List[Vertex]) -> None:
        if members and _is_maximal(graph, adj, members):
            found.append(frozenset(members))
        for idx, v in enumerate(candidates):
            extend(
                members + [v],
                [u for u in candidates[idx + 1:] if u in adj[v]],
            )

    extend([], order)
    # Isolated-vertex graphs: singletons are handled by the loop above.
    return sort_cliques(found, rank)


def _is_maximal(graph: Graph, adj, members: Sequence[Vertex]) -> bool:
    common: Optional[Set[Vertex]] = None
    for v in members:
        common = adj[v] if common is None else (common & adj[v])
    return not (common - set(members))


def cliques_agree(
    graph: Graph,
    max_vertices: int = DEFAULT_BRUTE_FORCE_MAX_VERTICES,
) -> bool:
    """Bron–Kerbosch and the brute force agree exactly (order included)."""
    return maximal_cliques(graph) == brute_force_maximal_cliques(
        graph, max_vertices
    )


# ----------------------------------------------------------------------
# LP oracle
# ----------------------------------------------------------------------

def scipy_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
        return True
    except Exception:  # pragma: no cover - scipy is baked into the image
        return False


def _relaxed(lp: LinearProgram, delta: float) -> LinearProgram:
    """A copy of ``lp`` with every bound slackened by ``delta``.

    Floating-point problem *data* (e.g. basic shares like ``B/7``) can be
    exactly infeasible by one ulp — ``7 * float(B/7) > B`` in exact
    rationals — even though the real-number LP it encodes is feasible.
    The relaxed copy decides whether an exact "infeasible" verdict is a
    genuine disagreement or this borderline artifact.
    """
    out = LinearProgram()
    for name in lp.variables:
        out.add_variable(name, lp.objective.get(name, 0.0))
    for con in lp.constraints:
        out.add_constraint(dict(con.coeffs), con.bound + delta, con.label)
    for name, bound in lp.lower_bounds.items():
        # set_lower_bound clamps at the existing value, so write directly.
        out.lower_bounds[name] = bound - delta
    return out


def lp_objective_matches(
    lp: LinearProgram,
    tol: float = 1e-6,
    with_scipy: bool = False,
    borderline_delta: float = 1e-9,
    backend: str = "revised",
) -> Dict[str, object]:
    """Differential solve of ``lp``: float solver vs exact reference.

    ``backend`` selects the float solver under test (``"simplex"`` or
    ``"revised"``); the report's ``backend`` key records the choice and
    the ``simplex_status`` / ``simplex_objective`` keys (named for the
    historical default) carry whichever float backend ran.

    Returns a report dict with ``ok`` plus the per-backend statuses and
    objectives.  Agreement means equal statuses and, for optimal LPs,
    objectives within ``tol``; the float solver's point must additionally
    be feasible for the LP (within ``tol``) — an "optimal" vertex that
    violates a constraint is a solver bug even if its objective looks
    right.

    One asymmetry is deliberate: when the exact solver reports infeasible
    but the float solver reports optimal, the LP is re-solved exactly with
    all bounds slackened by ``borderline_delta``.  If that relaxation is
    feasible and its exact optimum matches the float objective, the
    original verdict was a one-ulp data artifact (see :func:`_relaxed`)
    and the backends are deemed to agree (flagged ``borderline``).
    """
    float_sol = solve(lp, backend)
    exact_sol = solve_exact(lp)
    report: Dict[str, object] = {
        "ok": True,
        "backend": backend,
        "simplex_status": float_sol.status,
        "exact_status": exact_sol.status,
    }
    if float_sol.status == "optimal" and exact_sol.status == "infeasible":
        relaxed_sol = solve_exact(_relaxed(lp, borderline_delta))
        if relaxed_sol.is_optimal:
            report["borderline"] = True
            exact_sol = relaxed_sol
        else:
            report["ok"] = False
            return report
    elif float_sol.status != exact_sol.status:
        report["ok"] = False
        return report
    if not exact_sol.is_optimal:
        return report
    exact_obj = float(exact_sol.objective)
    report["simplex_objective"] = float_sol.objective
    report["exact_objective"] = exact_obj
    if abs(float_sol.objective - exact_obj) > tol:
        report["ok"] = False
    if not lp.is_feasible(float_sol.values, tol=tol):
        report["ok"] = False
        report["simplex_point_infeasible"] = True
    if with_scipy and scipy_available():
        scipy_sol = solve(lp, "scipy")
        report["scipy_status"] = scipy_sol.status
        if scipy_sol.status != exact_sol.status:
            report["ok"] = False
        elif scipy_sol.is_optimal:
            report["scipy_objective"] = scipy_sol.objective
            if abs(scipy_sol.objective - exact_obj) > tol:
                report["ok"] = False
    return report


# ----------------------------------------------------------------------
# 2PA-C vs 2PA-D oracle
# ----------------------------------------------------------------------

def _flow_cliques(
    cliques: Sequence[FrozenSet], flow_id: str
) -> Set[FrozenSet]:
    return {c for c in cliques if any(sid.flow == flow_id for sid in c)}


def check_2pad_against_centralized(
    scenario,
    centralized_shares: Dict[str, float],
    allocator: Optional[DistributedAllocator] = None,
    analysis: Optional[ContentionAnalysis] = None,
    tol: float = 1e-6,
) -> Dict[str, object]:
    """Differential check of the distributed protocol (Sec. IV-B).

    Three layers, strongest applicable wins:

    1. *Gossip fixpoint*: the synchronous per-flow gossip must land on the
       one-shot union of path-local flow-relevant cliques, recomputed here
       from the views alone (no propagation code involved).
    2. *Constraint completeness*: every maximal clique of the **global**
       contention graph that contains a subflow of flow ``i`` must be held
       at ``i``'s source after propagation — the property that makes the
       local LPs sound.
    3. *Conditional equivalence*: for each contending flow group whose
       members' sources all see the whole group (known flows == group
       flows and held cliques cover all the group's global cliques), the
       2PA-D shares must equal 2PA-C's within ``tol`` — the Fig. 1
       "no optimality gap" case, which random dense topologies hit often.

    Returns a dict with ``ok``, per-layer booleans, and diagnostics.
    """
    if allocator is None:
        allocator = DistributedAllocator(scenario)
    if not allocator._shares:
        allocator.run()
    if analysis is None:
        analysis = allocator.analysis

    report: Dict[str, object] = {
        "ok": True,
        "gossip_fixpoint": True,
        "constraint_completeness": True,
        "conditional_equivalence": True,
        "fully_informed_groups": 0,
        "groups": len(analysis.groups),
        "mismatches": [],
    }

    # Layer 1: gossip fixpoint == one-shot union over path nodes.
    for flow in scenario.flows:
        union: Set[FrozenSet] = set()
        for node in flow.path:
            union |= _flow_cliques(
                allocator.views[node].local_cliques, flow.flow_id
            )
        for node in flow.path:
            view = allocator.views[node]
            held = _flow_cliques(
                list(view.local_cliques) + list(view.received_cliques),
                flow.flow_id,
            )
            if not union <= held:
                report["gossip_fixpoint"] = False
                report["mismatches"].append(
                    f"flow {flow.flow_id}: node {node} missing "
                    f"{len(union - held)} gossiped clique(s)"
                )

    # Layer 2: source holds every global clique involving its flow.
    for flow in scenario.flows:
        global_cliques = _flow_cliques(analysis.cliques, flow.flow_id)
        held = set(allocator.views[flow.source].all_cliques())
        missing = global_cliques - held
        if missing:
            report["constraint_completeness"] = False
            report["mismatches"].append(
                f"flow {flow.flow_id}: source {flow.source} missing "
                f"{len(missing)} global clique constraint(s)"
            )

    # Layer 3: full-view groups must match the centralized solution.
    dist_shares = {
        f.flow_id: allocator._shares.get(f.flow_id) for f in scenario.flows
    }
    for group in analysis.groups:
        group_ids = {f.flow_id for f in group}
        group_cliques = {
            c for c in analysis.cliques
            if any(sid.flow in group_ids for sid in c)
        }
        fully_informed = True
        for flow in group:
            view = allocator.views[flow.source]
            if view.known_flows() != group_ids:
                fully_informed = False
                break
            if not group_cliques <= set(view.all_cliques()):
                fully_informed = False
                break
        if not fully_informed:
            continue
        report["fully_informed_groups"] += 1
        for flow in group:
            got = dist_shares[flow.flow_id]
            want = centralized_shares[flow.flow_id]
            if got is None or abs(got - want) > tol:
                report["conditional_equivalence"] = False
                report["mismatches"].append(
                    f"flow {flow.flow_id}: 2PA-D {got} != 2PA-C {want} "
                    f"in a fully-informed group"
                )

    report["ok"] = (
        report["gossip_fixpoint"]
        and report["constraint_completeness"]
        and report["conditional_equivalence"]
    )
    return report


# ----------------------------------------------------------------------
# Max-min saturation certificate vs probe oracle
# ----------------------------------------------------------------------

def maxmin_certificate_mismatches(
    lp: LinearProgram,
    weights: Optional[Mapping[str, float]] = None,
    backend: str = "revised",
) -> List[str]:
    """Rounds where the dual saturation certificate disagrees with probes.

    Replays :func:`repro.lp.maxmin.lexicographic_maxmin` (objective
    pinned at its optimum) and, in every round, also runs the
    probe-everything verdict — ``_select`` with an empty certified set,
    so every target is probed, certified ones included.  Reports
    each certified flow its probe finds unsaturated, and each round
    whose frozen list (with the certificate) differs from the probes'.
    The ladder advances on the probes' verdict.  Empty: the certificate
    only ever proved what the probes conclude.
    """
    base = solve(lp, backend)
    if not base.is_optimal:
        return []
    w = _weights(lp.variables, weights)
    work = _optimal_face(lp, base, fix_objective=True)
    frozen: Dict[str, float] = {}
    remaining = list(lp.variables)
    out: List[str] = []
    for rnd in range(1, len(remaining) + 3):
        if not remaining:
            break
        level, values, certified = _raise_floor(work, remaining, w, frozen,
                                                backend)
        if level is None:
            break

        def probe(probes):
            return _probe(work, remaining, w, frozen, level, backend, probes)

        by_probe, _ = _select(remaining, w, level, values, (), probe)
        out.extend(
            f"round {rnd}: {v} certified saturated, but its probe "
            f"raises it above {level * w[v]!r}"
            for v in remaining if v in certified and v not in by_probe
        )
        newly, _ = _select(remaining, w, level, values, certified, probe)
        if newly != by_probe:
            out.append(f"round {rnd}: frozen {newly} with the "
                       f"certificate != {by_probe} by probes")
        for v in by_probe:
            frozen[v] = level * w[v]
        remaining = [v for v in remaining if v not in by_probe]
    return out


# ----------------------------------------------------------------------
# Warm max-min session vs the cold probe-everything ladder
# ----------------------------------------------------------------------

class _ProbeEveryTarget(_ColdSteps):
    """The cold ladder with certification off: every target is probed."""

    def raise_floor(self, free, frozen):
        level, values, _certified = super().raise_floor(free, frozen)
        return level, values, set()


def maxmin_reference(
    lp: LinearProgram,
    weights: Optional[Mapping[str, float]] = None,
    fix_objective: bool = True,
    backend: str = "simplex",
) -> LPSolution:
    """:func:`~repro.lp.lexicographic_maxmin` by the cold ladder on
    ``backend`` (default: the dense tableau), probing every target."""
    w = _weights(lp.variables, weights)
    return _ladder(_ProbeEveryTarget(lp, w, backend), w, fix_objective,
                   NULL_SPAN)


def maxmin_session_mismatches(
    lp: LinearProgram,
    weights: Optional[Mapping[str, float]] = None,
    fix_objective: bool = True,
    tol: float = 1e-9,
    perturb=None,
) -> List[str]:
    """Where the ``revised`` backend's warm max-min session disagrees
    with :func:`maxmin_reference`: a status, or a share off by more
    than ``tol``.  ``perturb`` (fault injection) post-processes the
    session's shares before the comparison.  Empty: they agree."""
    got = lexicographic_maxmin(lp, weights, fix_objective,
                               backend="revised")
    want = maxmin_reference(lp, weights, fix_objective)
    if got.status != want.status:
        return [f"status {got.status} != reference {want.status}"]
    shares = dict(got.values)
    if perturb is not None:
        shares = perturb(shares)
    return [
        f"{v}: session {shares.get(v)!r} != reference {ref!r}"
        for v, ref in want.values.items()
        if shares.get(v) is None or abs(shares[v] - ref) > tol
    ]


def maxmin_exact(
    lp: LinearProgram,
    weights: Optional[Mapping[str, float]] = None,
    fix_objective: bool = True,
) -> ExactSolution:
    """:func:`~repro.lp.lexicographic_maxmin` in exact ``Fraction``
    arithmetic.

    The pin ``c.x >= T*`` carries the rational optimum of an exact base
    solve, so the face it cuts is exactly the LP's optimal face.  Each
    round maximizes the level over it with the free flows floored at
    ``level * w`` and the frozen ones substituted out; a free flow
    freezes when its exact probe maximum equals its floor (a flow some
    round or probe optimum already places above its floor needs no
    probe).  Levels and frozen values stay rational.  A round or probe
    that is not optimal reads like the float ladder's.
    """
    w = {v: Fraction(x) for v, x in _weights(lp.variables, weights).items()}
    base = solve_exact(lp)
    if not base.is_optimal:
        return base
    rows = [(con.coeffs, Fraction(con.bound)) for con in lp.constraints]
    if fix_objective and lp.objective:
        rows.append(({v: -c for v, c in lp.objective.items()},
                     -base.objective))
    basic = {v: Fraction(lp.lower_bounds.get(v, 0.0)) for v in lp.variables}
    frozen: Dict[str, Fraction] = {}
    free = list(lp.variables)

    def region(objective, floors, extra=()) -> LinearProgram:
        """The round's LP over the free flows (and ``extra`` rows)."""
        constraints = [Constraint(
            {v: Fraction(c) for v, c in coeffs.items() if v not in frozen},
            bound - sum(Fraction(c) * frozen[v] for v, c in coeffs.items()
                        if v in frozen)) for coeffs, bound in rows]
        return LinearProgram(
            _order=free + [v for v in objective if v not in free],
            objective=objective, constraints=constraints + list(extra),
            lower_bounds={v: max(basic[v], floors.get(v, 0)) for v in free})

    while free:
        t = "__maxmin_t__"
        rnd = solve_exact(region({t: 1}, {}, [
            Constraint({t: w[v], v: -1}, Fraction(0)) for v in free]))
        if not rnd.is_optimal:
            frozen.update((v, Fraction(0)) for v in free)
            break
        level = rnd.values[t]
        floors = {v: level * w[v] for v in free}
        raised = {v for v in free if rnd.values[v] > floors[v]}
        newly = []
        for v in free:
            if v in raised:
                continue
            peak = solve_exact(region({v: 1}, floors))
            if peak.is_optimal and peak.values[v] > floors[v]:
                raised.update(u for u in free
                              if peak.values[u] > floors[u])
            else:
                newly.append(v)
        for v in newly or [min(free)]:
            frozen[v] = floors[v]
        free = [v for v in free if v not in frozen]
    values = {v: frozen[v] for v in lp.variables}
    return ExactSolution("optimal", values, sum(
        Fraction(c) * values[v] for v, c in lp.objective.items()))


# ----------------------------------------------------------------------
# Runtime vs cold 2PA-C oracle
# ----------------------------------------------------------------------

def cold_journal_mismatches(
    scenario: Scenario, journal: Sequence
) -> List[str]:
    """Epochs of a runtime journal whose shares differ from a cold solve.

    Each record (anything with ``epoch``, ``active`` and ``shares``, e.g.
    an :class:`~repro.resilience.runtime.EpochRecord`) is re-solved with
    the monolithic :func:`basic_fairness_lp_allocation` over a cold
    :class:`ContentionAnalysis` of its active flows in ``scenario``
    order, and compared with ``==`` — no tolerance.  The reference knows
    no outages, damping or 2PA-D, so it applies to centralized journals
    on the intact topology without hysteresis.  Returns one line per
    mismatching epoch (empty: the journal agrees).
    """
    out: List[str] = []
    for record in journal:
        active = set(record.active)
        flows = [f for f in scenario.flows if f.flow_id in active]
        expected: Dict[str, float] = {}
        if flows:
            expected = dict(basic_fairness_lp_allocation(ContentionAnalysis(
                Scenario(scenario.network, flows,
                         name=f"{scenario.name}-cold",
                         capacity=scenario.capacity)
            )).shares)
        if dict(record.shares) != expected:
            diffs = [
                f"{fid}: {record.shares.get(fid)!r} != {expected.get(fid)!r}"
                for fid in sorted(set(record.shares) | set(expected))
                if record.shares.get(fid) != expected.get(fid)
            ]
            out.append(f"epoch {record.epoch}: " + "; ".join(diffs))
    return out
