"""Graceful degradation: never over-allocate, fall back to basic shares.

Two safety mechanisms for a 2PA-D run whose constraint exchange did not
fully converge (see :mod:`repro.resilience.channel`):

**Allocation ladder** (:func:`degraded_allocation`):

1. A flow whose source holds *every* constraint involving it (per-flow
   status ``"converged"``, source alive) solves its local LP exactly as
   in the fault-free protocol.
2. A flow with an incomplete or stale constraint view — or whose source
   is down — is clamped to its global basic share
   ``r̂_i = w_i B / Σ_j w_j v_j`` (Sec. II-D), the allocation the paper
   guarantees to be jointly feasible within a contending flow group.
3. A final *capacity governor* rescales shares so no maximal clique ever
   exceeds ``B`` (Eq. 6), whatever mixture steps 1–2 produced: for every
   overloaded clique ``k`` each member flow's scale factor is capped at
   ``B / load_k``, so after one pass every clique's load is ``<= B``
   (shares only shrink, and each member of clique ``k`` carries a factor
   ``<= B / load_k``).

**LP fallback chain** (:class:`ResilientLPBackend`): a drop-in LP backend
that tries the float simplex, then the exact-``Fraction`` reference
solver from :mod:`repro.verify.exact_lp`.  A stage *fails* when it
raises or returns a malformed solution (unknown status, or an "optimal"
with non-finite values); a clean ``optimal``/``infeasible``/
``unbounded`` verdict is an answer, not a failure.  Every demotion
increments the ``resilience.lp.fallback`` counter (plus a per-stage
counter), so chaos run artifacts show exactly how often the float path
had to be rescued.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.allocation import AllocationResult
from ..core.contention import ContentionAnalysis
from ..core.fairness_defs import basic_shares
from ..lp.problem import LinearProgram, LPSolution
from ..lp.revised import solve_revised
from ..lp.simplex import solve_simplex
from ..obs.registry import incr
from ..obs.trace import span

__all__ = [
    "ResilientLPBackend",
    "degraded_allocation",
    "enforce_clique_capacity",
    "global_basic_shares",
]

_LOG = logging.getLogger(__name__)

#: Strict-feasibility margin applied by the capacity governor so float
#: rounding in the rescaled loads cannot creep past B.
_GOVERNOR_MARGIN = 1.0 - 1e-12

#: Overload below this tolerance is float noise, not a violation — the
#: same tolerance :func:`repro.verify.invariants.check_clique_capacity`
#: uses, so the governor never rescales an allocation the checker would
#: already accept (keeping lossless channel runs bitwise identical to
#: the channel-free protocol).
_GOVERNOR_TOL = 1e-9


def global_basic_shares(analysis: ContentionAnalysis) -> Dict[str, float]:
    """Basic share of every flow, computed per contending flow group."""
    shares: Dict[str, float] = {}
    for group in analysis.groups:
        shares.update(basic_shares(group, analysis.scenario.capacity))
    return shares


def enforce_clique_capacity(
    analysis: ContentionAnalysis,
    shares: Mapping[str, float],
    capacity: Optional[float] = None,
    floors: Optional[Mapping[str, float]] = None,
) -> Tuple[Dict[str, float], bool]:
    """Scale ``shares`` down until every clique satisfies Eq. (6).

    Returns ``(safe_shares, clamped)``.  Without ``floors`` one pass
    suffices: every flow's factor is the minimum of ``B / load_k`` over
    its overloaded cliques, so each clique's rescaled load is at most
    ``B`` (factors never exceed 1 and shrinking a share can only reduce
    other cliques' loads).

    ``floors`` (flow-id -> Sec. II-D basic share) marks allocations the
    governor must not erode: a flow already at or below its floor is
    *exempt* from rescaling, and the remaining flows of an overloaded
    clique absorb the whole reduction.  A flow that would be pushed
    below its floor by that reduction is clamped *to* the floor, becomes
    exempt, and the pass repeats — each iteration either resolves every
    overload or exempts at least one more flow, so the loop terminates
    in at most ``len(shares) + 1`` iterations.  Only when the floors
    alone overfill a clique (impossible for shortcut-free flows,
    Sec. III-B, but reachable on arbitrary re-routed topologies) does
    the governor sacrifice floors for safety, scaling every member the
    old way and counting ``resilience.degrade.floor_sacrificed``.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    if floors is None:
        factor: Dict[str, float] = {fid: 1.0 for fid in shares}
        for coeffs in analysis.all_coefficients():
            load = sum(n * shares.get(fid, 0.0)
                       for fid, n in coeffs.items())
            if load > b + _GOVERNOR_TOL:
                cap = b / load * _GOVERNOR_MARGIN
                for fid in coeffs:
                    if fid in factor:
                        factor[fid] = min(factor[fid], cap)
        if all(f == 1.0 for f in factor.values()):
            return dict(shares), False
        return {fid: shares[fid] * factor[fid] for fid in shares}, True

    current: Dict[str, float] = dict(shares)
    exempt = {
        fid for fid, s in current.items()
        if s <= floors.get(fid, 0.0) + _GOVERNOR_TOL
    }
    sacrificed: set = set()
    clamped = False
    for _ in range(len(current) + 1):
        factor = {fid: 1.0 for fid in current}
        overloaded = False
        for coeffs in analysis.all_coefficients():
            load = sum(n * current.get(fid, 0.0)
                       for fid, n in coeffs.items())
            if load <= b + _GOVERNOR_TOL:
                continue
            overloaded = True
            exempt_load = sum(
                n * current.get(fid, 0.0)
                for fid, n in coeffs.items() if fid in exempt
            )
            headroom = b - exempt_load
            scalable = load - exempt_load
            if scalable <= 0.0 or headroom <= 0.0:
                # The floors themselves overfill this clique: safety
                # (Eq. 6) trumps the floor guarantee, old-style scaling.
                incr("resilience.degrade.floor_sacrificed")
                _LOG.debug(
                    "basic-share floors overfill a clique; scaling all "
                    "members including floor-clamped flows"
                )
                cap = b / load * _GOVERNOR_MARGIN
                for fid in coeffs:
                    if fid in factor:
                        factor[fid] = min(factor[fid], cap)
                        exempt.discard(fid)
                        sacrificed.add(fid)
                continue
            cap = headroom / scalable * _GOVERNOR_MARGIN
            for fid in coeffs:
                if fid in factor and fid not in exempt:
                    factor[fid] = min(factor[fid], cap)
        if not overloaded:
            break
        clamped = True
        newly_exempt = False
        for fid, f in factor.items():
            if f == 1.0:
                continue
            scaled = current[fid] * f
            floor = floors.get(fid, 0.0)
            if (fid not in exempt and fid not in sacrificed
                    and scaled < floor):
                # Never push a flow below Sec. II-D: clamp to the floor
                # and let the remaining flows absorb the next pass.
                current[fid] = floor
                exempt.add(fid)
                newly_exempt = True
            else:
                current[fid] = scaled
        if not newly_exempt:
            # Every overloaded clique was fully rescaled (or floor-
            # sacrificed): loads are now <= B, one more loop confirms.
            continue
    return current, clamped


def degraded_allocation(allocator) -> AllocationResult:
    """Conservative allocation for a partially converged 2PA-D run.

    ``allocator`` is a :class:`~repro.core.distributed.DistributedAllocator`
    whose views/convergence reflect a finished (possibly faulted)
    propagation.  Confirmed flows keep the protocol's local-LP share;
    unconfirmed flows are clamped to their global basic share; the
    capacity governor then guarantees Eq. (6) for the mixture.
    """
    analysis = allocator.analysis
    scenario = allocator.scenario
    per_flow = allocator.convergence.get("per_flow", {})
    basic = global_basic_shares(analysis)

    shares: Dict[str, float] = {}
    degraded: List[str] = []
    for flow in scenario.flows:
        fid = flow.flow_id
        info = per_flow.get(fid, {})
        if info.get("confirmed"):
            try:
                problem = allocator.problems.get(flow.source)
                if problem is None:
                    problem = allocator.solve_local(flow.source)
                shares[fid] = problem.solution[f"r_{fid}"]
                continue
            except Exception as exc:
                incr("resilience.degrade.lp_error")
                _LOG.debug(
                    "local LP at %r failed under degradation (%s); "
                    "clamping flow %s to its basic share",
                    flow.source, exc, fid,
                )
        shares[fid] = basic[fid]
        degraded.append(fid)
        incr("resilience.degrade.basic_clamp")

    safe, clamped = enforce_clique_capacity(analysis, shares, floors=basic)
    if clamped:
        incr("resilience.degrade.capacity_clamp")
        _LOG.debug("capacity governor rescaled a degraded allocation")
    if degraded:
        _LOG.debug("flows clamped to basic shares: %s", degraded)
    return AllocationResult(
        "distributed-degraded", safe, scenario.capacity
    )


class ResilientLPBackend:
    """LP backend with a float → exact-Fraction fallback chain.

    Usable anywhere a ``backend`` is accepted (it is a callable
    ``LinearProgram -> LPSolution``)::

        backend = ResilientLPBackend()
        DistributedAllocator(scenario, backend=backend).run()

    ``fallbacks`` counts demotions; the same number lands on the
    ``resilience.lp.fallback`` counter of the active metrics registry.

    ``backend`` names the solver the float stage runs (``"simplex"``
    or ``"revised"``).  The exact-``Fraction`` stage is backend-
    independent ground truth either way.
    """

    def __init__(self, backend: str = "revised") -> None:
        if backend not in ("simplex", "revised"):
            raise ValueError(
                f"ResilientLPBackend backend must be 'simplex' or "
                f"'revised', got {backend!r}"
            )
        self.backend = backend
        self.fallbacks = 0
        #: Stage name -> times that stage produced the accepted solution.
        self.served: Dict[str, int] = {"float": 0, "exact": 0}

    # Stages are resolved late (module globals, not bound references)
    # so tests can monkeypatch ``degrade.solve_simplex`` /
    # ``degrade.solve_revised`` to force demotions down the chain.
    def _stages(self) -> List[Tuple[str, Callable[[LinearProgram],
                                                  LPSolution]]]:
        solve_float = (solve_revised if self.backend == "revised"
                       else solve_simplex)
        return [("float", solve_float), ("exact", self._solve_exact)]

    @staticmethod
    def _solve_exact(lp: LinearProgram) -> LPSolution:
        from ..verify.exact_lp import solve_exact
        from ..verify.oracles import _relaxed

        solution = solve_exact(lp)
        if solution.status == "infeasible":
            # Float LP *data* can be exactly infeasible by one ulp (e.g. a
            # pinned objective value rounded up past the rational optimum)
            # even though the real-number LP is feasible; the float stages
            # absorb that in their epsilons.  Re-solve with every bound
            # slackened by 1e-9 — the same borderline handling the
            # float-vs-exact oracle applies — so the exact stage behaves
            # as a drop-in for a float backend.
            relaxed = solve_exact(_relaxed(lp, 1e-9))
            if relaxed.is_optimal:
                incr("resilience.lp.exact_relaxed")
                solution = relaxed
        return solution.to_lp_solution()

    @staticmethod
    def _well_formed(solution: LPSolution) -> bool:
        if solution.status not in ("optimal", "infeasible", "unbounded"):
            return False
        if solution.status == "optimal":
            if not all(math.isfinite(v) for v in solution.values.values()):
                return False
            if not math.isfinite(solution.objective):
                return False
        return True

    def __call__(self, lp: LinearProgram) -> LPSolution:
        last_error: Optional[BaseException] = None
        with span("lp.resilient") as chain_span:
            for name, fn in self._stages():
                with span(f"lp.resilient.{name}") as stage_span:
                    try:
                        solution = fn(lp)
                    except Exception as exc:
                        last_error = exc
                        solution = None
                    ok = (solution is not None
                          and self._well_formed(solution))
                    stage_span.tag(served=ok)
                if ok:
                    self.served[name] += 1
                    chain_span.tag(served_by=name)
                    return solution
                self.fallbacks += 1
                incr("resilience.lp.fallback")
                incr(f"resilience.lp.fallback.{name}")
                _LOG.debug(
                    "LP backend stage %r failed (%s); falling back",
                    name,
                    last_error if last_error is not None
                    else "malformed solution",
                )
            chain_span.tag(served_by="none")
        raise RuntimeError(
            f"every LP backend stage failed; last error: {last_error!r}"
        )
