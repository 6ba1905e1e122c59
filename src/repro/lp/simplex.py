"""A from-scratch two-phase primal simplex solver.

The paper notes that its allocation LPs "may be solved with the Simplex
algorithm"; this module implements exactly that, so the reproduction does
not depend on an external optimizer (scipy is used only as a cross-check in
the test suite).

The solver handles the standard form produced by
:class:`repro.lp.problem.LinearProgram`:

    maximize   c' x
    s.t.       A x <= b,   x >= lb  (>= 0 after shifting)

Lower bounds are eliminated by the substitution ``y = x - lb``; negative
right-hand sides after the shift (possible when basic shares exceed slack)
are handled by a phase-1 auxiliary problem with artificial variables.
Bland's anti-cycling rule governs pivot selection, which also makes the
returned vertex deterministic.

**Warm starts.**  Every optimal solve returns its final basis as a tuple
of structure-stable column labels (``("v", j)`` for structural columns,
``("s", i)`` / ``("g", i)`` for the slack / surplus of constraint row
``i``); :func:`solve_simplex` accepts such a basis as ``start_basis`` and,
when it maps cleanly onto the new problem and yields a feasible point,
skips phase 1 entirely and runs phase 2 from there.  Successive LPs with
identical structure but perturbed bounds/rows — the dynamic experiment's
per-churn-event re-solves — then finish in a handful of pivots.  Any
mapping failure (shape change, flipped row sense, singular or infeasible
basis) falls back to the cold two-phase path, so a warm start never
changes the *status* of a solve.  The pivot inner loops (reduced costs,
ratio test, row elimination) are vectorized over numpy arrays and remain
bit-identical to the scalar reference loops they replaced.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..obs.events import emit_event
from ..obs.registry import incr
from ..obs.trace import current_span_id, span, tag_current
from .problem import LinearProgram, LPSolution, Prices

_EPS = 1e-9

_LOG = logging.getLogger(__name__)

#: Structure-stable basis encoding: one ``(kind, index)`` label per row.
Basis = Tuple[Tuple[str, int], ...]


def solve_simplex(
    lp: LinearProgram, start_basis: Optional[Basis] = None
) -> LPSolution:
    """Solve ``lp`` with the two-phase simplex method.

    Returns an :class:`LPSolution` whose ``status`` is one of ``optimal``,
    ``infeasible`` or ``unbounded``; optimal solutions carry the final
    simplex basis for warm-starting a later, structurally identical solve
    (pass it back as ``start_basis``).
    """
    names = lp.variables
    if not names:
        return LPSolution("optimal", {}, 0.0, basis=())
    with span("lp.solve", vars=len(names), rows=len(lp.constraints),
              warm=start_basis is not None,
              backend="simplex") as solve_span:
        c, a, b, lb = lp.to_dense()

        # Shift out the lower bounds: x = y + lb with y >= 0.
        b_shift = b - a @ lb
        status, y, pivots, basis, pricer = _simplex_leq(
            c, a, b_shift, start_basis
        )
        solve_span.tag(status=status, pivots=pivots)
    incr("lp.simplex.solves")
    incr("lp.simplex.pivots", pivots)
    if status != "optimal":
        return LPSolution(status, {}, float("nan"))
    x = y + lb
    values = {v: float(x[j]) for j, v in enumerate(names)}
    return LPSolution(
        "optimal", values, lp.objective_value(values), basis=basis,
        pricer=pricer,
    )


#: Deferred ``(duals, reduced_costs)`` of a final basis.
Pricer = Callable[[], Prices]


def _simplex_leq(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    start_basis: Optional[Basis] = None,
) -> Tuple[str, Optional[np.ndarray], int, Optional[Basis],
           Optional[Pricer]]:
    """Maximize ``c'y`` s.t. ``A y <= b``, ``y >= 0`` (b may be negative).

    Returns ``(status, y, pivots, basis, pricer)``; ``pivots`` totals
    the phase-1 and phase-2 simplex iterations for profiling, ``basis``
    is the final basis encoded as structure-stable labels and ``pricer``
    computes its duals and reduced costs on demand (both optimal only).
    """
    pivots = 0
    m, n = a.shape
    if m == 0:
        # No constraints: optimum is 0 at origin unless some c_j > 0, in
        # which case the problem is unbounded.
        if np.any(c > _EPS):
            return "unbounded", None, pivots, None, None
        return "optimal", np.zeros(n), pivots, (), partial(
            _unconstrained_prices, c
        )

    # Convert rows with negative rhs to >= rows by negation, then build the
    # tableau with slack variables for <= rows and surplus + artificial
    # variables for >= rows.
    a = a.copy().astype(float)
    b = b.copy().astype(float)
    ge_rows = b < -_EPS
    a[ge_rows] *= -1.0
    b[ge_rows] *= -1.0
    # Now every row is  a_i y (<= or >=) b_i with b_i >= 0; ge_rows marks >=.

    num_slack = int(np.sum(~ge_rows))
    num_surplus = int(np.sum(ge_rows))
    num_art = num_surplus
    total = n + num_slack + num_surplus + num_art

    tableau = np.zeros((m, total))
    tableau[:, :n] = a
    rhs = b.copy()
    basis = np.empty(m, dtype=int)

    #: Structure-stable label per column; artificials are never exported.
    col_label: List[Tuple[str, int]] = [("v", j) for j in range(n)]
    col_label += [("?", k) for k in range(total - n)]

    slack_j = n
    surplus_j = n + num_slack
    art_j = n + num_slack + num_surplus
    art_cols = []
    for i in range(m):
        if ge_rows[i]:
            tableau[i, surplus_j] = -1.0
            tableau[i, art_j] = 1.0
            col_label[surplus_j] = ("g", i)
            col_label[art_j] = ("a", i)
            basis[i] = art_j
            art_cols.append(art_j)
            surplus_j += 1
            art_j += 1
        else:
            tableau[i, slack_j] = 1.0
            col_label[slack_j] = ("s", i)
            basis[i] = slack_j
            slack_j += 1

    art_start = n + num_slack + num_surplus

    # One-time dust sweep of the freshly built system; _pivot then only
    # sweeps the rows it modifies, which stays equivalent to sweeping the
    # whole tableau after every pivot.
    tableau[np.abs(tableau) < 1e-12] = 0.0
    rhs[np.abs(rhs) < 1e-12] = 0.0

    # Pristine copy of the augmented system: the final solution is
    # recomputed from it so the reported values depend only on the final
    # basis, not on the pivot path taken to reach it (a warm start and a
    # cold solve that land on the same basis report bitwise-equal
    # values).
    a0 = tableau.copy()
    b0 = rhs.copy()

    warm_ok = False
    if start_basis is not None:
        incr("perf.lp.warm.attempts")
        installed, stale_reason = _install_basis(
            a0, b0, col_label, start_basis, art_start
        )
        if installed is not None:
            tableau, rhs, basis = installed
            warm_ok = True
            incr("perf.lp.warm.installed")
        else:
            _note_stale_basis(stale_reason, len(start_basis), m)

    if not warm_ok and art_cols:
        # Phase 1: minimize sum of artificials == maximize -sum.
        obj1 = np.zeros(total)
        for j in art_cols:
            obj1[j] = -1.0
        status, iters = _run_simplex(tableau, rhs, obj1, basis)
        pivots += iters
        if status == "unbounded":  # pragma: no cover - cannot happen
            return "infeasible", None, pivots, None, None
        phase1_obj = sum(
            rhs[i] for i in range(m) if basis[i] >= art_start
        )
        if phase1_obj > 1e-7:
            return "infeasible", None, pivots, None, None
        _drive_out_artificials(tableau, rhs, basis, art_start)

    # Phase 2: original objective, artificial columns frozen at zero
    # (masked out of pivot selection so they can never re-enter).
    obj2 = np.zeros(total)
    obj2[:n] = c
    limit = art_start if art_cols else total
    status, iters = _run_simplex(tableau, rhs, obj2, basis,
                                 forbidden_from=limit)
    pivots += iters
    if status == "unbounded":
        return "unbounded", None, pivots, None, None

    y = np.zeros(total)
    basis_matrix = a0[:, basis]
    try:
        y_basic = np.linalg.solve(basis_matrix, b0)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        y_basic = rhs.copy()
    y_basic[np.abs(y_basic) < 1e-12] = 0.0
    y[basis] = y_basic
    final: Basis = tuple(col_label[j] for j in basis)
    return "optimal", y[:n], pivots, final, partial(
        _basis_prices, a0, obj2, basis, n, ge_rows
    )


def _basis_prices(
    a0: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    n: int,
    ge_rows: np.ndarray,
) -> Prices:
    """Duals ``pi = B^-T c_B`` and structural reduced costs of ``basis``.

    Solved against the pristine system ``a0`` (like the basis-pure
    values), so the prices depend only on the final basis.
    """
    try:
        pi = np.linalg.solve(a0[:, basis].T, obj[basis])
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return None, None
    return _finish_prices(pi, obj[:n] - pi @ a0[:, :n], basis, n, ge_rows)


def _finish_prices(
    pi: np.ndarray,
    reduced: np.ndarray,
    basis: np.ndarray,
    n: int,
    ge_rows: np.ndarray,
) -> Prices:
    """Sweep dust, zero the basic reduced costs, and flip the duals of
    rows the standard form negated into ``>=`` form back, so they price
    the caller's ``<=`` rows.  Shared by both backends."""
    pi[np.abs(pi) < 1e-12] = 0.0
    reduced[np.abs(reduced) < 1e-12] = 0.0
    reduced[basis[basis < n]] = 0.0
    return (tuple(np.where(ge_rows, -pi, pi).tolist()),
            tuple(reduced.tolist()))


def _unconstrained_prices(c: np.ndarray) -> Prices:
    """No rows: no duals, and every reduced cost is the objective's."""
    return (), tuple(c.tolist())


def _note_stale_basis(stale_reason: str, nlabels: int, m: int) -> None:
    """Record a rejected warm-start basis (counters, span tag, event).

    Shared by the dense and revised backends so the
    ``lp.warm.stale_basis.<reason>`` counter taxonomy and the
    span-attributed fallback events are identical regardless of which
    solver rejected the basis.
    """
    incr("perf.lp.warm.fallbacks")
    incr("lp.warm.stale_basis")
    incr(f"lp.warm.stale_basis.{stale_reason}")
    # Attribute the fallback to the LP-solve span it happened inside
    # (and, transitively, the epoch/probe above it), so a stale basis
    # in a trace points at a specific solve rather than a run-wide
    # counter.
    trigger = current_span_id()
    tag_current(stale_basis=stale_reason)
    if trigger is not None:
        emit_event(
            "lp.warm.stale_basis",
            reason=stale_reason,
            span=trigger,
        )
    _LOG.debug(
        "stale warm basis (%s): %d labels for %d rows; "
        "falling back to cold two-phase solve",
        stale_reason, nlabels, m,
    )


def _install_basis(
    a0: np.ndarray,
    b0: np.ndarray,
    col_label: List[Tuple[str, int]],
    start_basis: Basis,
    art_start: int,
) -> Tuple[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]], str]:
    """Build the tableau state for ``start_basis``.

    Returns ``(state, reason)``: ``state`` is ``(tableau, rhs, basis)``
    on success and ``None`` on failure, in which case ``reason`` is a
    short staleness classifier (``row-count``, ``unknown-label``,
    ``duplicate-column``, ``singular``, ``infeasible-point``,
    ``ill-conditioned``) for the ``lp.warm.stale_basis`` counters.

    The basis must have one label per row, every label must resolve to a
    non-artificial column of the current layout, the basis matrix must be
    nonsingular, and the induced basic point must be feasible
    (``rhs >= 0``).  The whole state is produced by one factorized solve
    against the pristine system (``B^-1 [A | b]``) instead of a pivot
    sequence — much cheaper than the phase-1/phase-2 pivots it replaces.
    """
    m = a0.shape[0]
    if len(start_basis) != m:
        return None, "row-count"
    index = {label: j for j, label in enumerate(col_label)}
    cols = []
    for label in start_basis:
        j = index.get(tuple(label))
        if j is None or j >= art_start:
            return None, "unknown-label"
        cols.append(j)
    if len(set(cols)) != m:
        return None, "duplicate-column"
    basis_matrix = a0[:, cols]
    try:
        solved = np.linalg.solve(
            basis_matrix, np.column_stack([a0, b0])
        )
    except np.linalg.LinAlgError:
        return None, "singular"
    tableau = solved[:, :-1]
    rhs = solved[:, -1]
    if not np.all(np.isfinite(rhs)) or np.any(rhs < -1e-7):
        return None, "infeasible-point"
    # Reject ill-conditioned bases: the basis columns of B^-1 A must
    # reduce to the identity or later sign tests cannot be trusted.
    eye = np.eye(m)
    if np.abs(tableau[:, cols] - eye).max() > 1e-7:
        return None, "ill-conditioned"
    tableau[:, cols] = eye
    # Tiny negative dust from the reduction would poison the ratio test.
    rhs[rhs < 0.0] = 0.0
    tableau[np.abs(tableau) < 1e-12] = 0.0
    rhs[np.abs(rhs) < 1e-12] = 0.0
    return (tableau, rhs, np.asarray(cols, dtype=int)), ""


def _run_simplex(
    tableau: np.ndarray,
    rhs: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    forbidden_from: Optional[int] = None,
) -> Tuple[str, int]:
    """Run primal simplex pivots in place.

    Returns ``('optimal'|'unbounded', pivot_count)``.  ``tableau`` is the
    m x total constraint matrix, ``rhs`` the m-vector, ``obj`` the
    maximization objective over all columns, ``basis`` the current basic
    column per row.  Bland's rule (smallest eligible index) prevents
    cycling.  Columns with index >= ``forbidden_from`` never enter.

    The entering-column scan and ratio test are vectorized; the tie-break
    semantics (Bland's rule within an ``_EPS`` band of the best ratio)
    exactly mirror the scalar reference loop.
    """
    m, total = tableau.shape
    limit = forbidden_from if forbidden_from is not None else total
    max_iters = 500 * (m + total + 1)

    for iteration in range(max_iters):
        # Reduced costs: z_j - c_j using current basis.
        cb = obj[basis]
        reduced = obj - cb @ tableau
        reduced[basis] = 0.0

        eligible = np.flatnonzero(reduced[:limit] > _EPS)
        if eligible.size == 0:
            return "optimal", iteration
        entering = int(eligible[0])

        # Ratio test with Bland's rule on ties (smallest basis index).
        column = tableau[:, entering]
        candidates = np.flatnonzero(column > _EPS)
        if candidates.size == 0:
            return "unbounded", iteration
        ratios = rhs[candidates] / column[candidates]
        best_ratio = np.inf
        leaving = -1
        for k in range(candidates.size):
            i = int(candidates[k])
            ratio = ratios[k]
            if ratio < best_ratio - _EPS or (
                abs(ratio - best_ratio) <= _EPS
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i

        _pivot(tableau, rhs, leaving, entering)
        basis[leaving] = entering
    raise RuntimeError("simplex did not converge (cycling safeguard hit)")


def _pivot(tableau: np.ndarray, rhs: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col), in place (vectorized rank-1).

    Numerical dust (|x| < 1e-12) is swept to exact zero, but only on the
    rows this pivot modified: untouched rows were swept when they were
    last written (or are pristine build output, swept once up front in
    ``_simplex_leq``), so the result is identical to a full-tableau sweep
    at a fraction of the cost.
    """
    piv = tableau[row, col]
    prow = tableau[row]
    prow /= piv
    rhs[row] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    touched = np.abs(factors) > _EPS
    if touched.any():
        block = tableau[touched]
        block -= factors[touched, None] * prow
        block[np.abs(block) < 1e-12] = 0.0
        tableau[touched] = block
        rvals = rhs[touched]
        rvals -= factors[touched] * rhs[row]
        rvals[np.abs(rvals) < 1e-12] = 0.0
        rhs[touched] = rvals
    prow[np.abs(prow) < 1e-12] = 0.0
    if abs(rhs[row]) < 1e-12:
        rhs[row] = 0.0


def _drive_out_artificials(
    tableau: np.ndarray, rhs: np.ndarray, basis: np.ndarray, art_start: int
) -> None:
    """Pivot basic artificial variables (at value 0) out of the basis."""
    m, total = tableau.shape
    for i in range(m):
        if basis[i] >= art_start:
            for j in range(art_start):
                if abs(tableau[i, j]) > _EPS:
                    _pivot(tableau, rhs, i, j)
                    basis[i] = j
                    break
            # If the whole row is zero the constraint was redundant; the
            # artificial stays basic at zero, which is harmless because its
            # column is excluded from phase-2 pivoting.
