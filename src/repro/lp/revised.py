"""Revised simplex over sparse clique-constraint matrices.

The dense tableau solver (:mod:`repro.lp.simplex`) carries the full
``m x (n + slacks)`` matrix through every pivot; at allocation-LP sizes
the tableau is overwhelmingly zero (clique rows touch only their member
flows, the max-min ladder's floor rows carry two nonzeros) and the
tableau update dominates every benchmarked profile.  This module keeps
the constraint matrix in the CSC form of :mod:`repro.lp.sparse` and
maintains only a factorized basis:

* **Basis inverse** — a basis of at most ``DENSE_MAX_ROWS`` rows keeps
  an explicit dense inverse, updated in place by each pivot's rank-one
  product-form step; a larger one keeps an LU factorization
  (``scipy.sparse.linalg.splu``) plus a product-form eta file.  Either
  way the factors are rebuilt every
  ``REFACTOR_EVERY`` pivots, which also re-derives the basic solution
  from pristine data and so bounds numerical drift.
* **Bounded variables** — every column carries bounds ``[lo, hi]``
  (either may be infinite); a nonbasic column sits at one of them, or
  at 0 when it is free.  The ratio test stops at whichever bound a
  basic column meets first, and a column whose own range is shorter
  flips bound without a basis change.
* **Pricing** — Dantzig's rule (largest reduced-cost magnitude among
  columns that may move, smallest column index on ties) with an
  automatic switch to Bland's rule after a run of degenerate pivots, so
  termination is guaranteed without giving up the fast path.  The
  ratio test mirrors the dense solver's semantics: minimum ratio, ties
  within an ``_EPS`` band broken by the smallest basis column index.
* **Determinism** — identical inputs produce identical pivot sequences
  and therefore bitwise-identical results; the reported values are
  recomputed from the final basis against the pristine system (exactly
  like the dense solver's basis-pure recompute), so any path that lands
  on a given basis reports the same values.
* **Standard form** — a cold solve uses the dense solver's form: the
  same lower-bound shift and the same slack/surplus/artificial column
  layout, so the two backends agree on every status.
* **Max-min session** — :class:`MaxminSession` carries one basis
  through a whole lexicographic max-min call: the base solve, the
  objective pin, every raise-floor round and every saturation probe
  edit only objectives and bounds, and each continues from the previous
  optimal basis without a phase 1.  It serves forms of up to
  ``SESSION_MAX_ROWS`` rows; a larger call runs the cold ladder, whose
  probes :meth:`RevisedBackend.probe_max_values` solves in one batch per
  round.

Status semantics (``optimal`` / ``infeasible`` / ``unbounded``) and the
phase-1 infeasibility threshold match the dense solver exactly, so the
two backends agree on every status the differential suite checks —
including the one-ulp borderline instances in ``tests/regressions/``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.registry import incr
from ..obs.trace import span
from .problem import LinearProgram, LPSolution, Prices
from .simplex import Pricer, _finish_prices, _unconstrained_prices
from .sparse import CSCMatrix, SparseLP

__all__ = ["BasisFactors", "MaxminSession", "RevisedBackend",
           "SessionFallback", "solve_revised"]

_EPS = 1e-9
#: Pivots between basis refactorizations (eta-file length bound).
REFACTOR_EVERY = 64
#: Consecutive degenerate pivots before pricing falls back to Bland.
_DEGENERATE_SWITCH = 40
#: Forms up to this many rows are priced densely and factored as an
#: explicit dense inverse.  Measured on a 2-vCPU x86-64 VM, one whole
#: max-min call on the contention-ladder family by session rows (splu
#: vs dense, best of 3): 33 rows 17.2 vs 8.2 ms, 61 rows 70.3 vs 33.4,
#: 121 rows 141.6 vs 128.5, 141 rows 255.7 vs 289.2.  Mesh-openloop's
#: session forms have 3-43 rows.
DENSE_MAX_ROWS = 128
#: Max-min calls whose session form (rows + pin + one floor row per
#: variable) has at most this many rows run on one warm session; larger
#: ones run the cold ladder with batched probes.  The two cross where
#: the session form leaves the dense factors: one whole call on the
#: contention-ladder family, session vs cold ladder, best of 5 on a
#: 2-vCPU x86-64 VM, at 51 session rows 7 vs 18 ms, 81 rows 20 vs 31,
#: 121 rows 52 vs 68, 131 rows 165 vs 138, 191 rows 213 vs 176.
SESSION_MAX_ROWS = 128
#: How far a session edit may leave a basic value outside its bounds
#: before the session gives up: the dense solver's phase-1 threshold.
#: Rounding in each level's read compounds through the frozen values of
#: later rounds (about tenfold a round on the 2,000-flow ladder, on both
#: backends), so a deep ladder's last freezes overfill a fully frozen
#: clique by ~1e-8.
_FEAS_TOL = 1e-7

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.sparse import csc_matrix as _scipy_csc
    from scipy.sparse.linalg import splu as _scipy_splu
    _HAVE_SPLU = True
except Exception:  # pragma: no cover - scipy is a declared dependency
    _HAVE_SPLU = False


def _dense_factors(m: int) -> bool:
    return m <= DENSE_MAX_ROWS or not _HAVE_SPLU


class BasisFactors:
    """A factorized basis matrix.

    ``ftran(v)`` solves ``B x = v`` and ``btran(v)`` solves
    ``B^T x = v`` where ``B`` is the matrix passed to the constructor
    with every :meth:`update` applied on top: ``update(r, w)`` replaces
    basis column ``r`` by the column whose forward-transformed image is
    ``w`` (``w = ftran(new_column)`` computed *before* the update, i.e.
    the simplex direction vector).

    Small bases keep an explicit inverse that each update rewrites in
    place (``inverse`` hands over one computed elsewhere, in place of
    ``matrix``); large ones keep ``splu`` factors plus a product-form
    eta file.  Call sites rebuild via a fresh ``BasisFactors`` once
    :attr:`needs_refactor` turns true — the hypothesis suite pins the
    drift/refactorization behaviour of both representations against
    dense ``numpy`` solves.
    """

    def __init__(self, matrix, refactor_every: int = REFACTOR_EVERY,
                 inverse: Optional[np.ndarray] = None) -> None:
        if matrix is not None and matrix.shape[0] != matrix.shape[1]:
            raise ValueError("basis matrix must be square")
        self.refactor_every = int(refactor_every)
        self._updates = 0
        self._lu = self._inv = None
        incr("lp.revised.factorizations")
        if inverse is not None:
            self._inv = inverse
        elif _dense_factors(matrix.shape[0]):
            self._inv = np.linalg.inv(
                matrix.toarray() if hasattr(matrix, "toarray")
                else np.asarray(matrix, dtype=float))
        else:
            sparse = matrix if hasattr(matrix, "tocsc") \
                else _scipy_csc(np.asarray(matrix, dtype=float))
            self._lu = _scipy_splu(sparse.tocsc())
            self._etas: List[Tuple[int, np.ndarray]] = []

    @property
    def updates(self) -> int:
        return self._updates

    @property
    def needs_refactor(self) -> bool:
        return self._updates >= self.refactor_every

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B x = v`` (forward transformation)."""
        v = np.asarray(v, dtype=float)
        if self._inv is not None:
            return self._inv @ v
        x = self._lu.solve(v)
        for r, w in self._etas:
            xr = x[r] / w[r]
            if xr != 0.0:
                x = x - w * xr
            x[r] = xr
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T x = v`` (backward transformation)."""
        v = np.asarray(v, dtype=float)
        if self._inv is not None:
            return v @ self._inv
        x = v.copy()
        for r, w in reversed(self._etas):
            x[r] = (x[r] - (w @ x - w[r] * x[r])) / w[r]
        return self._lu.solve(x, trans="T")

    def update(self, r: int, w: np.ndarray) -> None:
        """Replace basis column ``r``; ``w`` is the pre-update ftran of
        the incoming column (the simplex direction vector)."""
        if abs(w[r]) <= 0.0:
            raise np.linalg.LinAlgError(
                "singular eta update (zero pivot element)"
            )
        self._updates += 1
        if self._inv is not None:
            row = self._inv[r] / w[r]
            self._inv -= np.outer(w, row)
            self._inv[r] = row
            return
        self._etas.append((int(r), np.asarray(w, dtype=float).copy()))


class _Columns:
    """A constraint matrix by columns: a sparse structural block (columns
    ``[0, n)``) followed by signed unit columns — column ``n + k`` is
    ``unit_sign[k] * e_{unit_row[k]}``.  Up to ``DENSE_MAX_ROWS`` rows
    the whole matrix is also kept dense (``full``) for pricing."""

    def __init__(self, csc: CSCMatrix, unit_row: np.ndarray,
                 unit_sign: np.ndarray) -> None:
        self.csc = csc
        self.m, self.n = csc.shape
        self.unit_row = unit_row
        self.unit_sign = unit_sign
        self.total = self.n + unit_row.size
        self.full = None
        if _dense_factors(self.m):
            self.full = np.zeros((self.m, self.total))
            self.full[:, :self.n] = csc.to_dense()
            self.full[unit_row, np.arange(self.n, self.total)] = unit_sign

    def dense_column(self, j: int) -> np.ndarray:
        if self.full is not None:
            return self.full[:, j]
        out = np.zeros(self.m)
        if j < self.n:
            rows, vals = self.csc.column(j)
            out[rows] = vals
        else:
            out[self.unit_row[j - self.n]] = self.unit_sign[j - self.n]
        return out

    def price(self, y: np.ndarray) -> np.ndarray:
        """``z_j = y . a_j`` for every column."""
        if self.full is not None:
            return y @ self.full
        z = np.empty(self.total)
        z[:self.n] = self.csc.rmatvec(y)
        z[self.n:] = self.unit_sign * y[self.unit_row]
        return z

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` over every column."""
        if self.full is not None:
            return self.full @ x
        return self.csc.matvec(x[:self.n]) + np.bincount(
            self.unit_row, weights=self.unit_sign * x[self.n:],
            minlength=self.m)

    def factor(self, basis: np.ndarray) -> BasisFactors:
        """Fresh factors of the basis matrix of ``basis``."""
        if self.full is None:
            return BasisFactors(self.basis_matrix(basis))
        return BasisFactors(None, inverse=self.basis_inverse(basis))

    def basis_inverse(self, basis: np.ndarray) -> np.ndarray:
        """The explicit inverse of a dense-path basis matrix.

        Its unit columns cover rows ``U``; ordering rows ``[S; U]`` and
        columns ``[structural; unit]`` makes the matrix block lower
        triangular, ``[[K, 0], [A_U, D]]`` with ``D`` the units' signs,
        so only the small structural kernel ``K`` is inverted.
        """
        struct = basis < self.n
        slots_s = struct.nonzero()[0]
        slots_u = (~struct).nonzero()[0]
        uj = basis[slots_u] - self.n
        rows_u = self.unit_row[uj]
        sign = self.unit_sign[uj]  # +-1: its own reciprocal
        open_rows = np.ones(self.m, dtype=bool)
        open_rows[rows_u] = False
        rows_s = open_rows.nonzero()[0]
        if rows_s.size != slots_s.size:
            raise np.linalg.LinAlgError("singular basis (repeated unit row)")
        inv = np.zeros((self.m, self.m))
        inv[slots_u, rows_u] = sign
        if slots_s.size:
            a = self.full[:, basis[slots_s]]
            k_inv = np.linalg.inv(a[rows_s])
            inv[slots_s[:, None], rows_s] = k_inv
            inv[slots_u[:, None], rows_s] = (a[rows_u] @ k_inv) \
                * -sign[:, None]
        return inv

    def basis_matrix(self, basis: np.ndarray):
        """The basis matrix as scipy CSC.

        Assembled with vectorized gathers — one ``np.repeat`` pass over
        the structural columns' nonzero ranges plus a fancy-index for
        the unit columns — because this runs on every refactorization.
        """
        struct = basis < self.n
        slots_s = np.flatnonzero(struct)
        slots_u = np.flatnonzero(~struct)
        uj = basis[slots_u] - self.n
        sj = basis[slots_s]
        indptr = self.csc.indptr
        counts = indptr[sj + 1] - indptr[sj]
        total = int(counts.sum())
        starts = np.zeros(slots_s.size, dtype=np.int64)
        if slots_s.size:
            np.cumsum(counts[:-1], out=starts[1:])
        gather = (np.repeat(indptr[sj], counts)
                  + np.arange(total, dtype=np.int64)
                  - np.repeat(starts, counts))
        rows = np.concatenate([self.csc.indices[gather],
                               self.unit_row[uj]])
        cols = np.concatenate([np.repeat(slots_s, counts), slots_u])
        vals = np.concatenate([self.csc.data[gather],
                               self.unit_sign[uj]])
        return _scipy_csc((vals, (rows, cols)), shape=(self.m, self.m))


class _NumericalTrouble(RuntimeError):
    """Internal: basis became unfactorizable mid-solve."""


class _Simplex:
    """Bounded-variable primal simplex state over ``A x = b``.

    ``x`` holds every column's current value: a nonbasic column sits at
    ``lo`` or ``hi`` (at 0 when free), the basic ones are ``B^-1`` of
    what is left.  Objectives and bounds may change between calls to
    :meth:`optimize`; each call continues from the current basis.
    """

    def __init__(self, cols: _Columns, b: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, x: np.ndarray, basis: np.ndarray) -> None:
        self.cols = cols
        self.b = b
        self.lo = lo
        self.hi = hi
        self.x = x
        self.basis = basis
        self.refactor()

    def refactor(self) -> None:
        """Fresh factors for the basis plus the re-derived basic point."""
        try:
            self.factors = self.cols.factor(self.basis)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise _NumericalTrouble(
                f"refactorization failed: {exc}"
            ) from exc
        self.recompute()

    def recompute(self) -> None:
        """Basic values from pristine data: ``B^-1 (b - A_N x_N)``."""
        x_n = self.x.copy()
        x_n[self.basis] = 0.0
        x_b = self.factors.ftran(self.b - self.cols.matvec(x_n))
        x_b[np.abs(x_b) < 1e-12] = 0.0
        self.x[self.basis] = x_b

    def worst_violation(self) -> float:
        """Largest distance of a basic value outside its bounds."""
        x_b = self.x[self.basis]
        return float(max(np.max(self.lo[self.basis] - x_b, initial=0.0),
                         np.max(x_b - self.hi[self.basis], initial=0.0)))

    def optimize(self, obj: np.ndarray) -> Tuple[str, int]:
        """Maximize ``obj . x`` in place; ``(status, pivots)``."""
        cols, lo, hi, x, basis = (self.cols, self.lo, self.hi, self.x,
                                  self.basis)
        degenerate_run = 0
        bland = False
        # 1.0 where a nonbasic column may rise (fall), else 0.0; kept up
        # to date for the columns a pivot moves (a basic column's d is 0).
        can_rise = (x < hi).astype(float)
        can_fall = (x > lo).astype(float)
        lo_b, hi_b = lo[basis], hi[basis]
        for iteration in range(500 * (cols.m + cols.total + 1)):
            d = obj - cols.price(self.factors.btran(obj[basis]))
            d[basis] = 0.0
            # |d| where the column may move in d's direction, else <= 0.
            gain = np.maximum(d * can_rise, -d * can_fall)
            if bland:
                movable = (gain > _EPS).nonzero()[0]
                if movable.size == 0:
                    return "optimal", iteration
                entering = int(movable[0])
            else:
                # Dantzig: largest |d|; argmax returns the smallest index
                # among ties, keeping the choice deterministic.
                entering = int(np.argmax(gain))
                if gain[entering] <= _EPS:
                    return "optimal", iteration
            step = 1.0 if d[entering] > 0.0 else -1.0
            w = self.factors.ftran(cols.dense_column(entering))
            delta = w * -step  # change of x_B per unit move of entering
            x_b = x[basis]
            size = np.abs(delta)
            # Room to the bound each basic value moves towards; a value
            # the step leaves alone never blocks it.
            ratios = np.where(delta < 0.0, x_b - lo_b, hi_b - x_b)
            ratios[size <= _EPS] = np.inf
            np.maximum(ratios, 0.0, out=ratios)
            ratios /= size
            best = float(ratios.min())
            span_j = hi[entering] - lo[entering]
            if span_j <= best:
                if span_j == np.inf:
                    return "unbounded", iteration
                # Bound flip: the entering column crosses its own range
                # before any basic column meets a bound.
                theta = float(span_j)
                x[basis] = x_b + theta * delta
                x[entering] = hi[entering] if step > 0.0 else lo[entering]
                can_rise[entering] = step < 0.0
                can_fall[entering] = step > 0.0
            else:
                band = np.flatnonzero(ratios <= best + _EPS)
                leaving = int(band[np.argmin(basis[band])])
                theta = float(ratios[leaving])
                x_b = x_b + theta * delta
                x_b[leaving] = x[entering] + step * theta
                x_b[np.abs(x_b) < 1e-12] = 0.0
                out = basis[leaving]
                x[out] = lo[out] if delta[leaving] < 0.0 else hi[out]
                can_rise[out] = x[out] < hi[out]
                can_fall[out] = x[out] > lo[out]
                try:
                    self.factors.update(leaving, w)
                except np.linalg.LinAlgError as exc:  # pragma: no cover
                    raise _NumericalTrouble(str(exc)) from exc
                basis[leaving] = entering
                lo_b[leaving], hi_b[leaving] = lo[entering], hi[entering]
                x[basis] = x_b
                if self.factors.needs_refactor:
                    self.refactor()
            if abs(theta) <= _EPS:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_SWITCH:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        raise RuntimeError(
            "revised simplex did not converge (cycling safeguard hit)"
        )


class _StandardForm(_Columns):
    """The dense solver's standard form, column-sparse.

    Column layout and the lower-bound shift are identical to
    :func:`repro.lp.simplex._simplex_leq`: structural columns first,
    then one slack per ``<=`` row, one surplus and one artificial per
    negated (``>=``) row, in row order.
    """

    def __init__(self, sp: SparseLP) -> None:
        a, b, lb = sp.a, sp.b, sp.lb
        m, n = a.shape
        b_shift = b - a.matvec(lb)
        ge = b_shift < -_EPS
        sign = np.where(ge, -1.0, 1.0)
        self.rhs0 = b_shift * sign
        self.ge_rows = ge

        # Signed structural columns (CSC for pricing and gathers).
        csc = a.to_csc()
        signed = CSCMatrix(csc.num_rows, csc.num_cols, csc.indptr,
                           csc.indices, csc.data * sign[csc.indices])

        num_slack = int(np.sum(~ge))
        num_surplus = int(np.sum(ge))
        self.art_start = n + num_slack + num_surplus
        units = num_slack + 2 * num_surplus
        unit_row = np.zeros(units, dtype=np.int64)
        unit_sign = np.zeros(units)
        self.initial_basis = np.empty(m, dtype=np.int64)
        self.art_cols: List[int] = []

        slack_j, surplus_j, art_j = n, n + num_slack, self.art_start
        for i in range(m):
            if ge[i]:
                unit_row[surplus_j - n] = i
                unit_sign[surplus_j - n] = -1.0
                unit_row[art_j - n] = i
                unit_sign[art_j - n] = 1.0
                self.initial_basis[i] = art_j
                self.art_cols.append(art_j)
                surplus_j += 1
                art_j += 1
            else:
                unit_row[slack_j - n] = i
                unit_sign[slack_j - n] = 1.0
                self.initial_basis[i] = slack_j
                slack_j += 1
        super().__init__(signed, unit_row, unit_sign)


def _drive_out_artificials(sf: _StandardForm, simplex: _Simplex) -> None:
    """Pivot zero-valued basic artificials out, dense-solver order."""
    basis, factors = simplex.basis, simplex.factors
    for i in range(sf.m):
        if basis[i] >= sf.art_start:
            e_i = np.zeros(sf.m)
            e_i[i] = 1.0
            row = sf.price(factors.btran(e_i))
            for j in range(sf.art_start):
                if abs(row[j]) > _EPS:
                    factors.update(i, factors.ftran(sf.dense_column(j)))
                    basis[i] = j
                    break
            # All-zero row: redundant constraint; the artificial stays
            # basic at zero and is excluded from phase-2 pivoting.


def _revised_leq(
    sp: SparseLP,
) -> Tuple[str, Optional[np.ndarray], int, Optional[Pricer]]:
    """Maximize ``c'y`` s.t. ``A y <= b_shifted``, ``y >= 0``.

    Same return contract as the dense ``_simplex_leq``: ``(status, y,
    pivots, pricer)``.
    """
    pivots = 0
    m, n = sp.a.shape
    if m == 0:
        if np.any(sp.c > _EPS):
            return "unbounded", None, pivots, None
        return "optimal", np.zeros(n), pivots, partial(
            _unconstrained_prices, sp.c
        )

    sf = _StandardForm(sp)
    simplex = _Simplex(sf, sf.rhs0, np.zeros(sf.total),
                       np.full(sf.total, np.inf), np.zeros(sf.total),
                       sf.initial_basis.copy())
    if sf.art_cols:
        obj1 = np.zeros(sf.total)
        obj1[sf.art_cols] = -1.0
        status, iters = simplex.optimize(obj1)
        pivots += iters
        if status == "unbounded":  # pragma: no cover - bounded
            return "infeasible", None, pivots, None
        phase1_obj = float(sum(
            simplex.x[j] for j in simplex.basis if j >= sf.art_start
        ))
        if phase1_obj > 1e-7:
            return "infeasible", None, pivots, None
        _drive_out_artificials(sf, simplex)
        # Artificial columns are frozen at zero: they never re-enter.
        simplex.hi[sf.art_start:] = 0.0

    obj2 = np.zeros(sf.total)
    obj2[:n] = sp.c
    status, iters = simplex.optimize(obj2)
    pivots += iters
    if status == "unbounded":
        return "unbounded", None, pivots, None

    # Basis-pure final values and prices: recompute from pristine data
    # so the reported point, duals and reduced costs depend only on the
    # final basis, not the pivot path.
    try:
        simplex.refactor()
    except _NumericalTrouble:  # pragma: no cover
        pass
    return "optimal", simplex.x[:n].copy(), pivots, partial(
        _basis_prices, sf, simplex.factors, obj2, simplex.basis
    )


def _basis_prices(
    sf: _StandardForm,
    factors: BasisFactors,
    obj: np.ndarray,
    basis: np.ndarray,
) -> Prices:
    """Duals and structural reduced costs: one ``btran`` plus ``price``
    on the final factors, finished exactly like the dense solver's."""
    pi = factors.btran(obj[basis])
    reduced = obj[:sf.n] - sf.price(pi)[:sf.n]
    return _finish_prices(pi, reduced, basis, sf.n, sf.ge_rows)


def solve_revised(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` with the sparse revised simplex.

    Drop-in for :func:`repro.lp.simplex.solve_simplex`: same status
    semantics, same basic-share lower-bound shift.
    """
    names = lp.variables
    if not names:
        return LPSolution("optimal", {}, 0.0)
    with span("lp.solve", vars=len(names), rows=len(lp.constraints),
              backend="revised") as solve_span:
        sp = SparseLP.from_problem(lp)
        status, y, pivots, pricer = _revised_leq(sp)
        solve_span.tag(status=status, pivots=pivots)
    incr("lp.revised.solves")
    incr("lp.revised.pivots", pivots)
    if status != "optimal":
        return LPSolution(status, {}, float("nan"))
    x = y + sp.lb
    values = {v: float(x[j]) for j, v in enumerate(names)}
    return LPSolution(
        "optimal", values, lp.objective_value(values), pricer=pricer,
    )


class SessionFallback(RuntimeError):
    """A max-min session cannot continue from its basis: the basic
    floors need a phase 1, an edit left the point infeasible, or the
    basis went singular.  The caller reruns the call cold."""


class MaxminSession:
    """One bounded-variable standard form for a whole max-min call.

    Columns: the LP's variables ``x`` (lower bound = the LP's lower
    bound, the basic share), the ladder level ``t``, and one slack per
    row.  Rows: the LP's rows, the objective pin ``-c.x <= -T*``, and
    one floor row ``w_v t - x_v <= 0`` per variable.  The methods are
    the ladder's steps, each an edit of bounds or objective that keeps
    the current point feasible, so only the base solve starts from the
    slack basis:

    * :meth:`solve_base` — maximize ``c.x`` with ``t`` fixed at 0 and
      the pin row's slack free;
    * :meth:`pin` — the pin row gets right-hand side ``-T*`` (its own
      activity at the base optimum) and its slack lower bound 0 (or
      stays free), and ``t`` is released;
    * :meth:`raise_floor` — maximize ``t``;
    * :meth:`probe` — fix ``t`` at the level and maximize one ``x_v``;
    * :meth:`freeze` — fix ``x_v`` at its frozen value, free its floor
      row's slack, and bound ``t`` below by the level.

    Each optimization counts one ``lp.solves`` and opens one
    ``lp.solve`` span tagged with its ``session`` step.  A step that
    pivoted ends with a refactorization, so its values, level and
    prices depend on the final basis only.
    """

    def __init__(self, lp: LinearProgram, weights: Sequence[float]) -> None:
        sp = SparseLP.from_problem(lp)
        self.lp = lp
        self.names = sp.names
        self.index = {v: j for j, v in enumerate(sp.names)}
        n, (m, _) = len(sp.names), sp.a.shape
        rows = m + 1 + n
        self._t = n
        self._pin_row, self._floor_row = m, m + 1
        self._pin = n + 1 + m  # the pin row's slack column
        a = sp.a
        obj_cols = np.flatnonzero(sp.c)
        k = np.arange(n, dtype=np.int64)
        floor_rows = self._floor_row + k
        csc = CSCMatrix.from_coo(
            rows, n + 1,
            np.concatenate([np.repeat(np.arange(m), np.diff(a.indptr)),
                            np.full(obj_cols.size, m), floor_rows,
                            floor_rows]),
            np.concatenate([a.indices, obj_cols, k, np.full(n, n)]),
            np.concatenate([a.data, -sp.c[obj_cols], -np.ones(n),
                            np.asarray(weights, dtype=float)]),
        )
        cols = _Columns(csc, np.arange(rows, dtype=np.int64),
                        np.ones(rows))
        total = cols.total
        lo = np.zeros(total)
        hi = np.full(total, np.inf)
        lo[:n] = sp.lb
        hi[n] = 0.0  # t is fixed at 0 for the base solve
        lo[self._pin] = -np.inf  # the pin row is inert until pin()
        x = np.zeros(total)
        x[:n] = sp.lb
        self._c = np.zeros(total)
        self._c[:n] = sp.c
        self._w = np.asarray(weights, dtype=float)
        self._simplex = _Simplex(
            cols, np.concatenate([sp.b, np.zeros(1 + n)]), lo, hi, x,
            np.arange(n + 1, total, dtype=np.int64),
        )
        # A clique row the basic floors alone overfill needs phase 1,
        # which only the cold two-phase solve runs.
        self._needs_phase1 = bool(np.any(
            self._simplex.x[n + 1:n + 1 + m] < -_EPS
        ))

    # ------------------------------------------------------------------
    def _solve(self, obj: np.ndarray, step: str) -> str:
        simplex = self._simplex
        with span("lp.solve", vars=len(self.names),
                  rows=simplex.cols.m, backend="revised",
                  session=step) as solve_span:
            try:
                status, pivots = simplex.optimize(obj)
                if step == "probe":
                    # A peak only feeds a verdict: re-derive it from
                    # pristine data on the round's factors.
                    if pivots:
                        simplex.recompute()
                elif simplex.factors.updates:
                    simplex.refactor()  # basis-pure reads
            except RuntimeError as exc:
                raise SessionFallback(str(exc)) from exc
            solve_span.tag(status=status, pivots=pivots)
        incr("lp.solves")
        incr("lp.solves.revised")
        incr("lp.revised.solves")
        incr("lp.revised.pivots", pivots)
        if status != "optimal":
            incr(f"lp.solves.{status}")
        return status

    def _unit(self, j: int) -> np.ndarray:
        obj = np.zeros(self._simplex.cols.total)
        obj[j] = 1.0
        return obj

    def _edited(self) -> None:
        """Re-derive the basic point after an edit; it must stay
        feasible within ``_FEAS_TOL``."""
        self._simplex.recompute()
        worst = self._simplex.worst_violation()
        if worst > _FEAS_TOL:
            raise SessionFallback(
                f"an edit left a basic value {worst!r} outside its bounds"
            )

    def _values(self) -> Dict[str, float]:
        return dict(zip(self.names, self._simplex.x[:len(self.names)]
                        .tolist()))

    # ------------------------------------------------------------------
    def solve_base(self) -> LPSolution:
        """The LP itself: status, values and objective ``T*``."""
        if self._needs_phase1:
            raise SessionFallback("the basic floors need a phase 1")
        status = self._solve(self._c, "base")
        if status != "optimal":
            return LPSolution(status, {}, float("nan"))
        values = self._values()
        return LPSolution("optimal", values,
                          self.lp.objective_value(values))

    def pin(self, hold: bool) -> None:
        """Hold ``c.x`` at the base optimum (``False``: leave the pin
        row inert) and release ``t`` upwards from 0.

        The pin's right-hand side is the row's own activity at the
        optimum (its free slack's value), so the pinned point stays
        feasible to the last bit rather than missing a ``T*`` summed in
        another order by a few ulps.
        """
        simplex = self._simplex
        if hold:
            simplex.b[self._pin_row] = -simplex.x[self._pin]
            simplex.lo[self._pin] = 0.0
        simplex.hi[self._t] = np.inf
        self._edited()

    def raise_floor(
        self, free: Sequence[str],
    ) -> Optional[Tuple[float, Dict[str, float], List[float], List[float]]]:
        """Maximize ``t``: ``(level, values, floor duals, reduced
        costs)``, the last two for each ``free`` variable in order, or
        ``None`` when the LP is not optimal."""
        obj = self._unit(self._t)
        if self._solve(obj, "round") != "optimal":
            return None
        simplex = self._simplex
        pi = simplex.factors.btran(obj[simplex.basis])
        reduced = obj - simplex.cols.price(pi)
        reduced[simplex.basis] = 0.0
        cols = np.array([self.index[v] for v in free], dtype=np.int64)
        return (float(simplex.x[self._t]), self._values(),
                pi[self._floor_row + cols].tolist(),
                reduced[cols].tolist())

    def probe(self, level: float,
              targets: Sequence[str]) -> Dict[str, Optional[float]]:
        """Each target's maximum with ``t`` fixed at ``level`` (``None``:
        not optimal), one optimization per target, each continuing from
        the previous one's basis."""
        simplex = self._simplex
        simplex.lo[self._t] = simplex.hi[self._t] = level
        peaks: Dict[str, Optional[float]] = {}
        for v in targets:
            j = self.index[v]
            optimal = self._solve(self._unit(j), "probe") == "optimal"
            peaks[v] = float(simplex.x[j]) if optimal else None
        simplex.hi[self._t] = np.inf
        return peaks

    def freeze(self, level: float,
               values: Sequence[Tuple[str, float]]) -> None:
        """Fix each ``(v, value)`` and drop its floor row; ``t`` keeps
        ``level`` as its lower bound."""
        simplex = self._simplex
        basic = np.zeros(simplex.cols.total, dtype=bool)
        basic[simplex.basis] = True
        for v, value in values:
            j = self.index[v]
            simplex.lo[j] = simplex.hi[j] = value
            if not basic[j]:
                simplex.x[j] = value
            simplex.lo[self._pin + 1 + j] = -np.inf
        simplex.lo[self._t] = level
        simplex.hi[self._t] = np.inf
        self._edited()


class RevisedBackend:
    """The ``"revised"`` solver backend.

    Calling the instance solves one LP cold (used by
    :func:`repro.lp.solvers.solve`).  :meth:`maxmin_session` opens the
    warm :class:`MaxminSession` that
    :func:`repro.lp.maxmin.lexicographic_maxmin` runs a whole call on,
    up to ``SESSION_MAX_ROWS`` rows; a larger call runs the cold ladder,
    whose saturation probes :meth:`probe_max_values` answers in one
    batch per round.
    """

    __name__ = "revised"

    def __call__(self, lp: LinearProgram) -> LPSolution:
        return solve_revised(lp)

    @staticmethod
    def maxmin_session(lp: LinearProgram, weights: Sequence[float]
                       ) -> Optional[MaxminSession]:
        """The warm session a whole max-min call on ``lp`` runs on, or
        ``None`` when its form would have more than
        ``SESSION_MAX_ROWS`` rows."""
        if len(lp.constraints) + 1 + len(lp.variables) > SESSION_MAX_ROWS:
            return None
        return MaxminSession(lp, weights)

    def probe_max_values(
        self, lp: LinearProgram, targets: Sequence[str]
    ) -> Dict[str, Optional[float]]:
        """Max feasible value of each target variable of ``lp``.

        The LPs differ only in their objective, so they share one
        standard form and at most one phase 1, and each continues from
        the previous one's optimal basis.  ``None`` marks a target whose
        probe is not optimal (infeasible system, unbounded direction).
        """
        targets = list(targets)
        if not targets:
            return {}
        index = {v: j for j, v in enumerate(lp.variables)}
        for target in targets:
            if target not in index:
                raise KeyError(f"unknown probe target {target!r}")
        with span("lp.probe_batch", targets=len(targets),
                  rows=len(lp.constraints), backend="revised"):
            sp = SparseLP.from_problem(lp)
            if sp.a.shape[0] == 0:
                # Unconstrained: every probe maximization is unbounded.
                return {t: None for t in targets}
            sf = _StandardForm(sp)
            simplex = _Simplex(sf, sf.rhs0, np.zeros(sf.total),
                               np.full(sf.total, np.inf),
                               np.zeros(sf.total), sf.initial_basis.copy())
            pivots = 0
            if sf.art_cols:
                obj = np.zeros(sf.total)
                obj[sf.art_cols] = -1.0
                status, pivots = simplex.optimize(obj)
                if status != "optimal" or sum(
                        simplex.x[j] for j in simplex.basis
                        if j >= sf.art_start) > 1e-7:
                    return {t: None for t in targets}
                _drive_out_artificials(sf, simplex)
                simplex.hi[sf.art_start:] = 0.0
            out: Dict[str, Optional[float]] = {}
            for target in targets:
                j = index[target]
                obj = np.zeros(sf.total)
                obj[j] = 1.0
                status, iters = simplex.optimize(obj)
                pivots += iters
                out[target] = (float(simplex.x[j] + sp.lb[j])
                               if status == "optimal" else None)
        incr("lp.revised.probe_batches")
        incr("lp.revised.probes", len(targets))
        incr("lp.revised.pivots", pivots)
        return out
