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

The reported values (and the duals and reduced costs) are recomputed
from the final basis against the pristine system, so they depend only on
that basis, never on the pivot path that reached it.  The pivot inner
loops (reduced costs, ratio test, row elimination) are vectorized over
numpy arrays and remain bit-identical to the scalar reference loops they
replaced.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

import numpy as np

from ..obs.registry import incr
from ..obs.trace import span
from .problem import (LinearProgram, LPSolution, Pricer, Prices,
                      _finish_prices, _unconstrained_prices)

_EPS = 1e-9


def solve_simplex(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` with the two-phase simplex method.

    Returns an :class:`LPSolution` whose ``status`` is one of ``optimal``,
    ``infeasible`` or ``unbounded``.
    """
    names = lp.variables
    if not names:
        return LPSolution("optimal", {}, 0.0)
    with span("lp.solve", vars=len(names), rows=len(lp.constraints),
              backend="simplex") as solve_span:
        c, a, b, lb = lp.to_dense()

        # Shift out the lower bounds: x = y + lb with y >= 0.
        b_shift = b - a @ lb
        status, y, pivots, pricer = _simplex_leq(c, a, b_shift)
        solve_span.tag(status=status, pivots=pivots)
    incr("lp.simplex.solves")
    incr("lp.simplex.pivots", pivots)
    if status != "optimal":
        return LPSolution(status, {}, float("nan"))
    x = y + lb
    values = {v: float(x[j]) for j, v in enumerate(names)}
    return LPSolution(
        "optimal", values, lp.objective_value(values), pricer=pricer,
    )


def _simplex_leq(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> Tuple[str, Optional[np.ndarray], int, Optional[Pricer]]:
    """Maximize ``c'y`` s.t. ``A y <= b``, ``y >= 0`` (b may be negative).

    Returns ``(status, y, pivots, pricer)``; ``pivots`` totals the
    phase-1 and phase-2 simplex iterations for profiling and ``pricer``
    computes the final basis' duals and reduced costs on demand
    (optimal only).
    """
    pivots = 0
    m, n = a.shape
    if m == 0:
        # No constraints: optimum is 0 at origin unless some c_j > 0, in
        # which case the problem is unbounded.
        if np.any(c > _EPS):
            return "unbounded", None, pivots, None
        return "optimal", np.zeros(n), pivots, partial(
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

    slack_j = n
    surplus_j = n + num_slack
    art_j = n + num_slack + num_surplus
    art_cols = []
    for i in range(m):
        if ge_rows[i]:
            tableau[i, surplus_j] = -1.0
            tableau[i, art_j] = 1.0
            basis[i] = art_j
            art_cols.append(art_j)
            surplus_j += 1
            art_j += 1
        else:
            tableau[i, slack_j] = 1.0
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
    # basis, not on the pivot path taken to reach it.
    a0 = tableau.copy()
    b0 = rhs.copy()

    if art_cols:
        # Phase 1: minimize sum of artificials == maximize -sum.
        obj1 = np.zeros(total)
        for j in art_cols:
            obj1[j] = -1.0
        status, iters = _run_simplex(tableau, rhs, obj1, basis)
        pivots += iters
        if status == "unbounded":  # pragma: no cover - cannot happen
            return "infeasible", None, pivots, None
        phase1_obj = sum(
            rhs[i] for i in range(m) if basis[i] >= art_start
        )
        if phase1_obj > 1e-7:
            return "infeasible", None, pivots, None
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
        return "unbounded", None, pivots, None

    y = np.zeros(total)
    basis_matrix = a0[:, basis]
    try:
        y_basic = np.linalg.solve(basis_matrix, b0)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        y_basic = rhs.copy()
    y_basic[np.abs(y_basic) < 1e-12] = 0.0
    y[basis] = y_basic
    return "optimal", y[:n], pivots, partial(
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
