"""Lexicographic max-min refinement among LP optima.

The two-tier baseline's worked example in Sec. III allocates (3B/8, 3B/8)
to the two subflows of F2 rather than, say, (B/2, B/4): among all
allocations maximizing total single-hop throughput, the paper's two-tier
splits leftover capacity in a max-min fair way.  This module implements the
standard progressive-filling LP procedure:

1.  Solve the throughput-maximizing LP; record the optimum T*.
2.  Add the constraint  "objective >= T*".
3.  Repeatedly maximize the minimum normalized share among still-free
    variables; freeze the variables whose shares cannot be raised further;
    repeat until all variables are frozen.

A variable "cannot be raised further" when the probe LP maximizing it
over the round's optimal face finds nothing above its floor.  Most of
those probes are answered without solving anything: the raise-floor
LP's own duals certify saturation (see :func:`_certificate`), and only
the flows left uncertified are probed.  On a session, the flows that
step 1's optimum already fixes on the whole optimal face start frozen
(:meth:`~repro.lp.revised.MaxminSession.fix_face`), so rounds and
probes run only for flows that can still move.

Every step is an LP over one constraint system that changes only in
objective and bounds.  With the ``revised`` backend a call of up to
``SESSION_MAX_ROWS`` session rows runs on one
:class:`~repro.lp.revised.MaxminSession`, which carries one basis from
the base solve through every round and probe; it opens straight from
the LP's :class:`~repro.lp.problem.DenseLP` arrays, which a caller may
hand over in place of a :class:`~repro.lp.problem.LinearProgram`.
Every other call runs the cold ladder — one LP built and solved from
scratch per round, and per probe unless the backend batches a round's
probes (``probe_max_values``) — which is also the reference
:mod:`repro.verify.oracles` replays, and the fallback of a session that
cannot continue.

The same machinery also yields *pure* weighted max-min allocations (without
step 1/2) — used for comparison strategies and property tests.
"""

from __future__ import annotations

from typing import (Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from ..obs.registry import incr
from ..obs.trace import span
from .problem import DenseLP, LinearProgram, LPSolution
from .revised import WORK, MaxminSession, SessionFallback
from .solvers import resolve_backend, solve

_TOL = 0.0
#: Price magnitude a certificate needs: a dual above it (or a reduced
#: cost below its negative) is a real price, not rounding dust.
_PRICE_TOL = 1e-9
#: A certified flow's value may sit this far above its floor.
_FLOOR_TOL = 1e-9
#: A probe whose maximum stays this close to the floor is saturated.
_PROBE_TOL = 1e-7
#: A flow the raise-floor optimum places further than this above its
#: floor is witnessed unsaturated (10x the probe tolerance).
_WITNESS_TOL = 1e-6

#: ``(level, values, certified)`` of one raise-floor round.
Round = Tuple[Optional[float], Mapping[str, float], Set[str]]


def lexicographic_maxmin(
    lp: Union[LinearProgram, DenseLP],
    weights: Optional[Mapping[str, float]] = None,
    fix_objective: bool = True,
    backend: str = "revised",
) -> LPSolution:
    """Max-min-refined solution of ``lp``.

    When ``fix_objective`` is True (the two-tier semantics), the original
    objective value is first pinned at its optimum; the lexicographic
    max-min then only arbitrates between equally-optimal vertices.  When
    False, a pure weighted max-min allocation over the feasible region is
    computed.

    ``weights`` normalizes shares (share/weight comparisons); defaults to 1.

    ``lp`` may also be given as its :class:`DenseLP` arrays: a session
    then opens straight from them, and a :class:`LinearProgram` is built
    (:meth:`DenseLP.to_problem`) only for the cold ladder.

    The ``lp.maxmin`` span is tagged with the call's ``rounds``, its
    flows ``fixed`` by the optimal face, ``certified`` and ``probed``,
    and the revised-simplex work it took: ``solves``, ``pivots`` and
    ``factorizations``.
    """
    names = list(lp.names) if isinstance(lp, DenseLP) else lp.variables
    w = _weights(names, weights)
    before = dict(WORK)
    with span("lp.maxmin", vars=len(names),
              fix_objective=fix_objective) as maxmin_span:
        try:
            return _maxmin(lp, w, fix_objective, backend, maxmin_span)
        finally:
            maxmin_span.tag(**{k: WORK[k] - before[k] for k in WORK})


def _maxmin(lp: Union[LinearProgram, DenseLP], w: Mapping[str, float],
            fix_objective: bool, backend, maxmin_span) -> LPSolution:
    """The call on the backend's session when it opens one, else (and
    when the session gives up) on the cold ladder."""
    fn, _ = resolve_backend(backend)
    open_session = getattr(fn, "maxmin_session", None)
    if open_session is not None:
        session = open_session(lp, list(w.values()))
        if session is not None:
            try:
                return _ladder(_SessionSteps(session, w), w,
                               fix_objective, maxmin_span)
            except SessionFallback:
                incr("lp.maxmin.session_fallbacks")
    if isinstance(lp, DenseLP):
        lp = lp.to_problem()
    return _ladder(_ColdSteps(lp, w, backend), w, fix_objective,
                   maxmin_span)


def _ladder(steps, w: Mapping[str, float], fix_objective: bool,
            maxmin_span) -> LPSolution:
    """The progressive-filling loop over one step provider."""
    base = steps.solve_base()
    if not base.is_optimal:
        maxmin_span.tag(status=base.status)
        return base
    # Flows the pinned optimal face already fixes start frozen.
    frozen = steps.pin(base, fix_objective)
    fixed = len(frozen)
    remaining = [v for v in w if v not in frozen]
    guard = len(remaining) + 2
    rounds = certified_total = probed_total = 0
    while remaining and guard:
        guard -= 1
        rounds += 1
        level, values, certified = steps.raise_floor(remaining, frozen)
        if level is None:
            # No further improvement possible; freeze everything as-is.
            for v in remaining:
                frozen[v] = values.get(v, frozen.get(v, 0.0))
            break
        newly, probed = _select(
            remaining, w, level, values, certified,
            lambda probes: steps.probe(remaining, frozen, level, probes),
        )
        certified_total += len(certified)
        probed_total += probed
        for v in newly:
            frozen[v] = level * w[v]
        steps.freeze(level, [(v, frozen[v]) for v in newly])
        remaining = [v for v in remaining if v not in newly]

    maxmin_span.tag(status="optimal", rounds=rounds, fixed=fixed,
                    certified=certified_total, probed=probed_total)
    solution = dict(frozen)
    return LPSolution("optimal", solution, steps.objective_value(solution))


class _ColdSteps:
    """The cold ladder: every round and probe is a fresh LP on
    ``backend``, built from the pinned optimal face."""

    def __init__(self, lp: LinearProgram, w: Mapping[str, float],
                 backend) -> None:
        self.lp, self.w, self.backend = lp, w, backend
        self.objective_value = lp.objective_value

    def solve_base(self) -> LPSolution:
        return solve(self.lp, self.backend)

    def pin(self, base: LPSolution, fix_objective: bool) -> Dict[str, float]:
        self.work = _optimal_face(self.lp, base, fix_objective)
        return {}

    def raise_floor(self, free: List[str],
                    frozen: Mapping[str, float]) -> Round:
        return _raise_floor(self.work, free, self.w, frozen, self.backend)

    def probe(self, free: List[str], frozen: Mapping[str, float],
              level: float, probes: List[str]) -> Set[str]:
        return _probe(self.work, free, self.w, frozen, level,
                      self.backend, probes)

    def freeze(self, level: float,
               values: Sequence[Tuple[str, float]]) -> None:
        """Frozen values enter each later LP through ``frozen``."""


class _SessionSteps:
    """The warm ladder: every step edits one
    :class:`~repro.lp.revised.MaxminSession`."""

    def __init__(self, session: MaxminSession,
                 w: Mapping[str, float]) -> None:
        self.session, self.w = session, w
        self.objective_value = session.objective_value

    def solve_base(self) -> LPSolution:
        return self.session.solve_base()

    def pin(self, base: LPSolution, fix_objective: bool) -> Dict[str, float]:
        self.session.pin(fix_objective and self.session.has_objective)
        return self.session.fix_face()

    def raise_floor(self, free: List[str],
                    frozen: Mapping[str, float]) -> Round:
        found = self.session.raise_floor(free)
        if found is None:
            return None, {}, set()
        level, values, floor_duals, reduced = found
        return level, values, _certificate(free, self.w, level, values,
                                           floor_duals, reduced)

    def probe(self, free: List[str], frozen: Mapping[str, float],
              level: float, probes: List[str]) -> Set[str]:
        peaks = self.session.probe(level, probes)
        return {v for v in probes
                if _stays_at_floor(peaks[v], level, self.w[v])}

    def freeze(self, level: float,
               values: Sequence[Tuple[str, float]]) -> None:
        self.session.freeze(level, values)


def _weights(names: List[str],
             weights: Optional[Mapping[str, float]]) -> Dict[str, float]:
    """Per-variable positive weights (default 1)."""
    w = {v: float((weights or {}).get(v, 1.0)) for v in names}
    for v, wv in w.items():
        if wv <= 0:
            raise ValueError(
                f"weight for {v!r} must be positive, got {wv}"
            )
    return w


def _optimal_face(lp: LinearProgram, base: LPSolution,
                  fix_objective: bool) -> LinearProgram:
    """``lp`` with its objective pinned at the optimum ``base`` found."""
    work = lp.clone()
    if fix_objective and lp.objective:
        # objective >= T*  encoded as  -objective <= -T*.
        work.add_constraint(
            {v: -c for v, c in lp.objective.items()},
            -base.objective + _TOL,
            label="pin-optimal-total",
        )
    return work


def _fix_value(lp: LinearProgram, v: str, val: float) -> None:
    """Pin ``x_v == val``: a lower *bound* plus one upper constraint.

    The bound (rather than a ``-x <= -val`` row) keeps the standard-form
    rhs non-negative after the solver shifts bounds out, so pinning
    frozen variables never introduces artificial variables — probe LPs
    start from the feasible slack basis and skip simplex phase 1.
    """
    lp.set_lower_bound(v, max(val - _TOL, 0.0))
    lp.add_constraint({v: 1.0}, val + _TOL, label=f"fix-hi:{v}")


def _raise_floor(
    lp: LinearProgram,
    free: List[str],
    w: Mapping[str, float],
    frozen: Mapping[str, float],
    backend: str,
) -> Round:
    """Maximize t s.t. x_v >= t*w_v for free v, x_v == frozen_v otherwise.

    Returns ``(level, values, certified)``: the optimal ``t``, the
    optimal point, and the free variables its prices prove saturated
    (:func:`_certified`).  ``level`` is ``None`` when the LP is not
    optimal.
    """
    aux = lp.clone()
    t = "__maxmin_t__"
    aux.objective = {t: 1.0}
    aux._order = [v for v in aux._order] + ([t] if t not in aux._order else [])
    first_floor = len(aux.constraints)
    for v in free:
        # t*w_v - x_v <= 0
        aux.add_constraint({t: w[v], v: -1.0}, 0.0, label=f"floor:{v}")
    for v, val in frozen.items():
        _fix_value(aux, v, val)
    sol = solve(aux, backend)
    if not sol.is_optimal:
        return None, {}, set()
    level = sol.values.get(t, 0.0)
    return level, sol.values, _certified(aux, sol, free, w, level,
                                         first_floor)


def _certified(
    aux: LinearProgram,
    sol: LPSolution,
    free: List[str],
    w: Mapping[str, float],
    level: float,
    first_floor: int,
) -> Set[str]:
    """:func:`_certificate` of a cold raise-floor LP ``aux`` (whose
    floor rows start at row ``first_floor``).  Backends that report no
    prices certify nothing, and every target is probed."""
    if sol.duals is None or sol.reduced_costs is None:
        return set()
    column = {v: j for j, v in enumerate(aux.variables)}
    return _certificate(
        free, w, level, sol.values,
        sol.duals[first_floor:first_floor + len(free)],
        [sol.reduced_costs[column[v]] for v in free],
    )


def _certificate(
    free: List[str],
    w: Mapping[str, float],
    level: float,
    values: Mapping[str, float],
    floor_duals: Sequence[float],
    reduced: Sequence[float],
) -> Set[str]:
    """Free variables the raise-floor optimum's prices prove saturated.

    ``floor_duals[k]`` and ``reduced[k]`` are the dual of ``free[k]``'s
    floor row and the reduced cost of its column.  Every point of the
    round's probe region is an optimum of the raise-floor LP, so
    complementary slackness against the optimal dual ``(pi, d)`` holds
    there.  A free ``v`` is then pinned at ``level * w_v`` on the whole
    region if either

    * its floor row has a dual above ``_PRICE_TOL`` — the row is tight
      at every optimum; or
    * ``x_v`` has a reduced cost below ``-_PRICE_TOL`` (so it is
      nonbasic at its lower bound) and that bound is the floor
      (``x_v <= level * w_v + _FLOOR_TOL``) — ``x_v`` equals its bound
      at every optimum.
    """
    return {
        v for k, v in enumerate(free)
        if floor_duals[k] > _PRICE_TOL or (
            reduced[k] < -_PRICE_TOL
            and values[v] <= level * w[v] + _FLOOR_TOL
        )
    }


def _select(
    free: List[str],
    w: Mapping[str, float],
    level: float,
    hint: Optional[Mapping[str, float]],
    certified: Collection[str],
    probe: Callable[[List[str]], Set[str]],
) -> Tuple[List[str], int]:
    """Free variables that cannot exceed ``level * w`` with the floor held,
    and the number of probe LPs it took to find them.

    ``hint`` is any feasible point of the probe region (the floor-raise
    solution): a variable it already places strictly above its floor is
    witnessed unsaturated, so its probe LP is skipped.  The witness margin
    is 10x the probe tolerance, so skipping never disagrees with what the
    probe (a maximization, whose optimum dominates the witness) would
    conclude.

    ``certified`` variables are proved saturated by the raise-floor
    LP's prices (and sit at their floor, so the witness filter keeps
    them); they freeze without a probe, and ``probe`` gets only the
    other targets.  The returned list keeps the targets' order either
    way, so the ``fix-hi`` rows of later rounds do not depend on how
    saturation was proved.
    """
    targets = [
        v for v in free
        if hint is None or hint.get(v, 0.0) <= level * w[v] + _WITNESS_TOL
    ]
    probes = [v for v in targets if v not in certified]
    saturated = set(targets).difference(probes)
    if probes:
        saturated.update(probe(probes))
    stuck = [v for v in targets if v in saturated]
    # At least one variable must freeze per round to guarantee progress.
    if not stuck and free:
        stuck = [min(free)]
    return stuck, len(probes)


def _stays_at_floor(peak: Optional[float], level: float,
                    wv: float) -> bool:
    """A probe's verdict: its maximum (``None``: not optimal) does not
    rise above the floor ``level * wv``."""
    return peak is None or peak <= level * wv + _PROBE_TOL


def _probe(
    lp: LinearProgram,
    free: List[str],
    w: Mapping[str, float],
    frozen: Mapping[str, float],
    level: float,
    backend: str,
    probes: List[str],
) -> Set[str]:
    """The ``probes`` whose maximum over the probe region stays at the
    floor: one cold LP per target, or one batch where the backend
    offers ``probe_max_values``."""
    # All probes this round share one constraint system; only the
    # objective changes between solves.
    aux = lp.clone()
    for v in free:
        aux.set_lower_bound(v, max(level * w[v] - _TOL, 0.0))
    for v, val in frozen.items():
        _fix_value(aux, v, val)
    fn, _ = resolve_backend(backend)
    probe_batch = getattr(fn, "probe_max_values", None)
    if probe_batch is not None:
        incr("lp.maxmin.batch_probes")
        peaks = probe_batch(aux, probes)
    else:
        peaks = {}
        for target in probes:
            aux.objective = {target: 1.0}
            sol = solve(aux, backend)
            peaks[target] = sol.values.get(target) if sol.is_optimal \
                else None
    return {v for v in probes if _stays_at_floor(peaks[v], level, w[v])}
