"""Revised simplex over sparse clique-constraint matrices.

The dense tableau solver (:mod:`repro.lp.simplex`) carries the full
``m x (n + slacks)`` matrix through every pivot; at allocation-LP sizes
the tableau is overwhelmingly zero (clique rows touch only their member
flows, the max-min ladder's floor rows carry two nonzeros) and the
tableau update dominates every benchmarked profile.  This module reads
the constraint matrix from the CSR form of :mod:`repro.lp.sparse` and
maintains only what a pivot needs, through one of two kernels chosen by
row count:

* **Small forms** (at most ``DENSE_MAX_ROWS`` rows) keep their whole
  tableau ``B^-1 A`` (:class:`_Tableau`).  Its unit-column block is
  ``B^-1`` itself, the entering column is a slice, reduced costs are
  priced once per optimization and then updated by one axpy per pivot,
  and a pivot is one rank-one update.  At these sizes the cost of an
  iteration is the number of numpy calls it makes, not its arithmetic.
* **Large forms** keep an LU factorization
  (``scipy.sparse.linalg.splu``) plus a product-form eta file
  (:class:`BasisFactors`), and price every iteration through the
  matrix's scipy CSC columns.

Either kernel is rebuilt every ``REFACTOR_EVERY`` pivots, which also
re-derives the basic solution from pristine data and so bounds
numerical drift.

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
  and therefore bitwise-identical results.  A cold solve's values and
  prices are recomputed from the final basis against the pristine
  system (the dense solver's basis-pure recompute), so any path that
  lands on a given basis reports the same values; a session's are read
  off the tableau it maintains, so they are a function of its
  deterministic pivot path.
* **Standard form** — a cold solve uses the dense solver's form: the
  same lower-bound shift and the same slack/surplus/artificial column
  layout, so the two backends agree on every status.
* **Max-min session** — :class:`MaxminSession` carries one basis
  through a whole lexicographic max-min call: the base solve, the
  objective pin, every raise-floor round and every saturation probe
  edit only objectives and bounds, and each continues from the previous
  optimal basis without a phase 1; the flows the pinned optimal face
  fixes start frozen, so rounds run only for the others.  Its steps
  read the live kernel: the basic values and reduced costs the pivots
  keep, and a freeze of a nonbasic value moves the basic ones by one
  axpy of the kernel's column, so a call with fewer than
  ``REFACTOR_EVERY`` pivots factors only the slack basis it opens on.
  It serves forms of up to ``SESSION_MAX_ROWS`` rows; a larger call runs
  the cold ladder, whose probes :meth:`RevisedBackend.probe_max_values`
  solves in one batch per round.

Status semantics (``optimal`` / ``infeasible`` / ``unbounded``) and the
phase-1 infeasibility threshold match the dense solver exactly, so the
two backends agree on every status the differential suite checks —
including the one-ulp borderline instances in ``tests/regressions/``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.blas import dger as _dger
from scipy.linalg.lapack import dgetrf as _dgetrf, dgetri as _dgetri
from scipy.sparse import csc_matrix as _scipy_csc
from scipy.sparse.linalg import splu as _scipy_splu

from ..obs.registry import incr
from ..obs.trace import span
from .problem import (DenseLP, LinearProgram, LPSolution, Pricer, Prices,
                      _finish_prices, _unconstrained_prices)
from .sparse import SparseLP

__all__ = ["BasisFactors", "MaxminSession", "RevisedBackend",
           "SessionFallback", "WORK", "session_fits", "solve_revised"]

_EPS = 1e-9
#: Pivots between basis refactorizations (eta-file length bound).
REFACTOR_EVERY = 64
#: Consecutive degenerate pivots before pricing falls back to Bland.
_DEGENERATE_SWITCH = 40
#: Forms up to this many rows keep their dense tableau (:class:`_Tableau`);
#: larger ones keep splu factors plus an eta file.  Stays with the
#: session gate (below).  Mesh-openloop's session forms have 3-43 rows.
DENSE_MAX_ROWS = 128
#: Max-min calls whose session form (rows + pin + one floor row per
#: variable) has at most this many rows run on one warm session; larger
#: ones run the cold ladder with batched probes.  Raising both gates to
#: 256 wins on repeated calls (DESIGN 13.2 has the numbers), but a
#: larger session inverts kernels of 100+ columns, where OpenBLAS runs
#: ``getrf``/``getri`` on its thread pool and a fresh process's first
#: call stalls (the 150-flow ``revised_lp`` BENCH point read 766-810 ms
#: against 282-298 at 128).
SESSION_MAX_ROWS = 128
#: Most tableau entries one BLAS ``dger`` call updates, and most
#: multiply-adds one matrix product of a fresh tableau makes.  OpenBLAS
#: runs larger calls on its thread pool, whose hand-offs cost more than
#: the arithmetic at these sizes and stall whenever the other core is
#: busy.  On a 2-vCPU x86-64 VM a cold contention-ladder call (150
#: flows, 41 x 271 tableaus) took 0.8-1.2 s in some runs instead of
#: 0.16-0.18 s, and a 121-row session call 66-70 ms instead of 17 ms.
#: Larger updates and products run in column blocks.
_GER_BLOCK = 8192
_GEMM_BLOCK = 200_000
#: How far a session edit may leave a basic value outside its bounds
#: before the session gives up: the dense solver's phase-1 threshold.
#: Rounding in each level's read compounds through the frozen values of
#: later rounds (about tenfold a round on the 2,000-flow ladder, on both
#: backends), so a deep ladder's last freezes overfill a fully frozen
#: clique by ~1e-8.
_FEAS_TOL = 1e-7


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, in column blocks of ``b`` past ``_GEMM_BLOCK``."""
    step = max(1, _GEMM_BLOCK // (a.shape[0] * a.shape[1] or 1))
    if step >= b.shape[1]:
        return a @ b
    return np.hstack([a @ b[:, lo:lo + step]
                      for lo in range(0, b.shape[1], step)])


def _inverse(k: np.ndarray) -> np.ndarray:
    """LAPACK ``getrf`` + ``getri``: numpy's ``inv`` without its
    per-call checks, which cost more than the inversion at these
    sizes."""
    if k.shape[0] != k.shape[1]:
        raise np.linalg.LinAlgError("singular basis (repeated unit row)")
    lu, piv, info = _dgetrf(k)
    if info == 0:
        inverse, info = _dgetri(lu, piv, overwrite_lu=True)
    if info != 0:
        raise np.linalg.LinAlgError("singular basis kernel")
    return inverse


#: Whole-array reductions without ``ndarray.min``/``max``'s Python layer.
_min, _max = np.minimum.reduce, np.maximum.reduce


#: Revised-simplex work done so far: LP solves (each probe of a batch
#: counts one), pivots and fresh factorizations.  A max-min call tags
#: its span with what the call added.
WORK = {"solves": 0, "pivots": 0, "factorizations": 0}


def _account(solves: int, pivots: int, factorizations: int) -> None:
    WORK["solves"] += solves
    WORK["pivots"] += pivots
    WORK["factorizations"] += factorizations


class BasisFactors:
    """A basis matrix as ``splu`` factors plus a product-form eta file.

    ``ftran(v)`` solves ``B x = v`` and ``btran(v)`` solves
    ``B^T x = v`` where ``B`` is the matrix passed to the constructor
    with every :meth:`update` applied on top: ``update(r, w)`` replaces
    basis column ``r`` by the column whose forward-transformed image is
    ``w`` (``w = ftran(new_column)`` computed *before* the update, i.e.
    the simplex direction vector).  Call sites rebuild via a fresh
    ``BasisFactors`` once :attr:`needs_refactor` turns true — the
    hypothesis suite pins the drift/refactorization behaviour against
    dense ``numpy`` solves.
    """

    def __init__(self, matrix, refactor_every: int = REFACTOR_EVERY) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("basis matrix must be square")
        self.refactor_every = int(refactor_every)
        self.updates = 0
        sparse = matrix if hasattr(matrix, "tocsc") \
            else _scipy_csc(np.asarray(matrix, dtype=float))
        self._lu = _scipy_splu(sparse.tocsc())
        self._etas: List[Tuple[int, np.ndarray]] = []

    @property
    def needs_refactor(self) -> bool:
        return self.updates >= self.refactor_every

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B x = v`` (forward transformation)."""
        x = self._lu.solve(np.asarray(v, dtype=float))
        for r, w in self._etas:
            xr = x[r] / w[r]
            if xr != 0.0:
                x = x - w * xr
            x[r] = xr
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T x = v`` (backward transformation)."""
        x = np.array(v, dtype=float)
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
        self.updates += 1
        self._etas.append((int(r), np.asarray(w, dtype=float).copy()))


class _Factored(BasisFactors):
    """The kernel of a large form: :class:`BasisFactors` of its basis,
    every iteration priced by one ``btran`` plus a pass over the sparse
    columns.  ``basis`` is the simplex's own array, read live."""

    def __init__(self, cols: "_Columns", basis: np.ndarray) -> None:
        super().__init__(cols.basis_matrix(basis), REFACTOR_EVERY)
        self.cols, self.basis = cols, basis
        self._obj = self._d = self._x_b = None

    def column(self, q: int) -> np.ndarray:
        """``B^-1 a_q``: the direction of entering column ``q``."""
        return self.ftran(self.cols.dense_column(q))

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of ``B^-1 A``."""
        e_i = np.zeros(self.cols.m)
        e_i[i] = 1.0
        return self.cols.price(self.btran(e_i))

    def _reduced(self, obj: np.ndarray) -> np.ndarray:
        return obj - self.cols.price(self.btran(obj[self.basis]))

    def start(self, obj, x, lo, hi):
        """``(d, x_B, lo_B, hi_B)`` for an optimization of ``obj``: its
        reduced costs and the basic values and bounds by basis slot,
        kept current by :meth:`pivot`."""
        self._obj = obj
        self._d = self._reduced(obj)
        self._x_b = x[self.basis]
        return self._d, self._x_b, lo[self.basis], hi[self.basis]

    def pivot(self, r: int, q: int, w: np.ndarray, move: float = 0.0,
              value: float = 0.0) -> None:
        """Column ``q`` (direction ``w``), whose entry in ``basis``
        already reads ``q``, replaces basis slot ``r``: the basic values
        fall by ``move * w``, slot ``r`` takes ``value``, and the reduced
        costs are repriced."""
        self.update(r, w)
        if self._x_b is not None:
            self._x_b -= move * w
            self._x_b[r] = value
            self._d[:] = self._reduced(self._obj)


class _Tableau:
    """The kernel of a small form: its whole tableau ``B^-1 A``.

    ``A`` includes the unit columns, one of sign +1 per row
    (:attr:`_Columns.eye`), so their block of the tableau is ``B^-1``
    itself, which ``ftran``/``btran`` read.  One Fortran-ordered array
    holds ``[[B^-1 A, x_B], [d, 0]]``: the tableau, the basic values as
    an extra column and the reduced costs as an extra row.  The entering
    column is a slice, and one rank-one update (BLAS ``dger``, in column
    blocks past ``_GER_BLOCK`` entries) pivots the tableau, moves the
    basic values and reprices every column.  A fresh tableau inverts only
    the basis' structural kernel (:meth:`_Columns.solve_basis`).
    """

    def __init__(self, cols: "_Columns", basis: np.ndarray) -> None:
        self.cols, self.basis = cols, basis
        self.refactor_every = REFACTOR_EVERY
        self.updates = 0
        m, total = cols.m, cols.total
        self.t = np.zeros((m + 1, total + 1), order="F")
        self._block = max(1, _GER_BLOCK // (m + 1))
        cols.solve_basis(basis, self.t[:m, :-1])

    @property
    def needs_refactor(self) -> bool:
        return self.updates >= self.refactor_every

    @property
    def inverse(self) -> np.ndarray:
        """``B^-1``: the unit columns' block of the tableau."""
        return self.t[:self.cols.m, self.cols.eye]

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return self.inverse @ v

    def btran(self, v: np.ndarray) -> np.ndarray:
        return v @ self.inverse

    def column(self, q: int) -> np.ndarray:
        """Column ``q`` of the tableau, then its reduced cost (the
        simplex reads the first ``m`` entries)."""
        return self.t[:, q].copy()

    def row(self, i: int) -> np.ndarray:
        return self.t[i, :-1]

    def start(self, obj, x, lo, hi):
        """Views ``(d, x_B)`` plus ``(lo_B, hi_B)`` for an optimization
        of ``obj`` (see :meth:`_Factored.start`)."""
        m, t, basis = self.cols.m, self.t, self.basis
        t[m, :-1] = obj - obj[basis] @ t[:m, :-1]
        t[:m, -1] = x[basis]
        return t[m, :-1], t[:m, -1], lo[basis], hi[basis]

    def pivot(self, r: int, q: int, w: np.ndarray, move: float = 0.0,
              value: float = 0.0) -> None:
        """Column ``q`` (``w``, its :meth:`column` before the pivot)
        replaces basis slot ``r``; see :meth:`_Factored.pivot`."""
        if abs(w[r]) <= 0.0:
            raise np.linalg.LinAlgError("singular pivot (zero element)")
        self.updates += 1
        row = self.t[r] / w[r]
        row[-1] = move
        t, block = self.t, self._block
        for lo in range(0, t.shape[1], block):
            # In place: a column block of a Fortran-ordered array is
            # itself Fortran-contiguous.
            _dger(-1.0, w, row[lo:lo + block], a=t[:, lo:lo + block],
                  overwrite_a=True)
        row[-1] = value
        self.t[r] = row


class _Columns:
    """A constraint matrix by columns: a structural block (columns
    ``[0, n)``, given as coordinate triples) followed by signed unit
    columns — column ``n + k`` is ``unit_sign[k] * e_{unit_row[k]}``.
    Every row has exactly one unit column of sign +1 (its slack or its
    artificial); :attr:`eye` indexes them by row (a slice when they are
    the unit columns in row order).  Up to ``DENSE_MAX_ROWS``
    rows the whole matrix is kept dense (``full``, the tableau kernel's
    ``A``); above, as scipy CSC (``csc``)."""

    def __init__(self, m: int, n: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, unit_row: np.ndarray,
                 unit_sign: np.ndarray) -> None:
        self.m, self.n = m, n
        self.total = n + unit_row.size
        plus = np.flatnonzero(unit_sign > 0)
        eye = np.empty(m, dtype=np.int64)
        eye[unit_row[plus]] = n + plus
        self.eye = (slice(n, n + m) if plus.size == unit_row.size == m
                    else eye)
        self.full = self.csc = None
        if m <= DENSE_MAX_ROWS:
            self.full = np.zeros((m, self.total))
            self.full[rows, cols] = vals
            self.full[unit_row, np.arange(n, self.total)] = unit_sign
            # Each column's unit row (-1: structural) and sign.
            self.row_of = np.concatenate([np.full(n, -1), unit_row])
            self.sign_of = np.concatenate([np.zeros(n), unit_sign])
            self.negative_units = bool(np.any(unit_sign < 0))
            self._every_row = np.ones(m, dtype=bool)
        else:
            self.csc = _scipy_csc((
                np.concatenate([vals, unit_sign]),
                (np.concatenate([rows, unit_row]),
                 np.concatenate([cols, np.arange(n, self.total)]))),
                shape=(m, self.total))

    def kernel(self, basis: np.ndarray):
        """A fresh kernel of the basis ``basis`` (read live)."""
        if self.full is not None:
            return _Tableau(self, basis)
        return _Factored(self, basis)

    def dense_column(self, j: int) -> np.ndarray:
        a, out = self.csc, np.zeros(self.m)
        lo, hi = a.indptr[j], a.indptr[j + 1]
        out[a.indices[lo:hi]] = a.data[lo:hi]
        return out

    def price(self, y: np.ndarray) -> np.ndarray:
        """``z_j = y . a_j`` for every column."""
        return y @ self.full if self.full is not None else self.csc.T @ y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` over every column."""
        return self.full @ x if self.full is not None else self.csc @ x

    def solve_basis(self, basis: np.ndarray, out: np.ndarray) -> None:
        """``B^-1 A`` of a small form's basis ``B``, into ``out``.

        The basis' unit columns cover rows ``U``; ordering rows
        ``[S; U]`` and columns ``[structural; unit]`` makes ``B`` block
        lower triangular, ``[[K, 0], [A_U, D]]`` with ``D`` the units'
        signs, so only the small structural kernel ``K`` is inverted:
        the structural slots' rows are ``K^-1 A_S`` and the unit slots'
        ``D (A_U - A_U[:, B_S] K^-1 A_S)``.
        """
        row_of = self.row_of[basis]
        struct = row_of < 0
        unit = ~struct
        rows_u = row_of[unit]
        t_u = self.full[rows_u]
        sj = basis[struct]
        if sj.size:
            open_rows = self._every_row.copy()
            open_rows[rows_u] = False
            a_s = self.full[open_rows]
            t_s = _product(_inverse(a_s[:, sj]), a_s)
            t_u -= _product(t_u[:, sj], t_s)
            out[struct] = t_s
        if self.negative_units:
            t_u *= self.sign_of[basis[unit], None]
        out[unit] = t_u

    def basis_matrix(self, basis: np.ndarray):
        """The basis matrix as scipy CSC."""
        return self.csc[:, basis]


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
        # 1.0 (-1.0) on nonbasic columns, 0.0 on basic ones.
        self.nonbasic = np.ones(x.size)
        self.nonbasic[basis] = 0.0
        self.nonbasic_neg = -self.nonbasic
        self.factorizations = 0
        self.d: Optional[np.ndarray] = None  # last optimization's costs
        self._moves = np.empty((x.size, 2))
        self._no_block = np.full(basis.size, np.inf)
        self.refactor()

    def refactor(self) -> None:
        """A fresh kernel for the basis plus the re-derived basic point."""
        try:
            self.kernel = self.cols.kernel(self.basis)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise _NumericalTrouble(
                f"refactorization failed: {exc}"
            ) from exc
        self.factorizations += 1
        incr("lp.revised.factorizations")
        self.recompute()

    def recompute(self) -> None:
        """Basic values from pristine data: ``B^-1 (b - A_N x_N)``."""
        x_b = self.kernel.ftran(
            self.b - self.cols.matvec(self.x * self.nonbasic))
        x_b[np.abs(x_b) < 1e-12] = 0.0
        self.x[self.basis] = x_b

    def worst_violation(self) -> float:
        """Largest distance of a basic value outside its bounds."""
        x_b = self.x[self.basis]
        return max(0.0, float(_max(np.maximum(self.lo[self.basis] - x_b,
                                              x_b - self.hi[self.basis]))))

    def optimize(self, obj: np.ndarray) -> Tuple[str, int]:
        """Maximize ``obj . x`` in place; ``(status, iterations)``."""
        kernel, lo, hi, x, basis = (self.kernel, self.lo, self.hi, self.x,
                                    self.basis)
        nonbasic, nonbasic_neg = self.nonbasic, self.nonbasic_neg
        d, x_b, lo_b, hi_b = kernel.start(obj, x, lo, hi)
        # Per column: 1.0 where it is nonbasic and may rise, else 0.0;
        # -1.0 where it is nonbasic and may fall, else 0.0.  Its gain is
        # the larger of d times each, and the two sit side by side so
        # one argmax over both finds the smallest column of largest
        # gain.  Kept up to date for the columns a step moves.
        moves = self._moves
        np.multiply(x < hi, nonbasic, out=moves[:, 0])
        np.multiply(x > lo, nonbasic_neg, out=moves[:, 1])
        d_col = d[:, None]
        m = basis.size
        no_block = self._no_block
        degenerate_run = 0
        bland = False
        for iteration in range(500 * (m + x.size + 1)):
            gain = d_col * moves
            if bland:
                movable = (gain > _EPS).any(axis=1).nonzero()[0]
                if movable.size == 0:
                    status = "optimal"
                    break
                entering = int(movable[0])
            else:
                # Dantzig: largest |d|; argmax returns the smallest index
                # among ties, keeping the choice deterministic.
                best_move = int(gain.argmax())
                if gain.item(best_move) <= _EPS:
                    status = "optimal"
                    break
                entering = best_move >> 1
            up = d.item(entering) > 0.0
            w_full = kernel.column(entering)
            w = w_full[:m]
            # Ratio to the bound each basic value moves towards (it
            # falls by theta * w when the entering column rises, rises
            # by theta * w when it falls); a value the step leaves alone
            # never blocks it, and one past its bound by rounding blocks
            # at a step of 0.
            if up:
                room = x_b - np.where(w > 0.0, lo_b, hi_b)
            else:
                room = np.where(w < 0.0, lo_b, hi_b) - x_b
            ratios = no_block.copy()
            np.divide(room, w, out=ratios, where=np.abs(w) > _EPS)
            best = _min(ratios)
            if best < 0.0:
                np.maximum(ratios, 0.0, out=ratios)
                best = 0.0
            lo_e, hi_e = lo.item(entering), hi.item(entering)
            span_j = hi_e - lo_e
            if span_j <= best:
                if span_j == np.inf:
                    status = "unbounded"
                    break
                # Bound flip: the entering column crosses its own range
                # before any basic column meets a bound.
                theta = span_j
                x_b -= (theta if up else -theta) * w
                x[entering] = hi_e if up else lo_e
                moves[entering, 0] = 0.0 if up else 1.0
                moves[entering, 1] = -1.0 if up else 0.0
            else:
                band = (ratios <= best + _EPS).nonzero()[0]
                leaving = int(band[0] if band.size == 1
                              else band[basis[band].argmin()])
                theta = ratios.item(leaving)
                out = basis.item(leaving)
                lo_o, hi_o = lo.item(out), hi.item(out)
                x_o = lo_o if (w.item(leaving) > 0.0) == up else hi_o
                x[out] = x_o
                moves[out, 0] = x_o < hi_o
                moves[out, 1] = -(x_o > lo_o)
                nonbasic[out], nonbasic_neg[out] = 1.0, -1.0
                moves[entering] = nonbasic[entering] = \
                    nonbasic_neg[entering] = 0.0
                basis[leaving] = entering
                lo_b[leaving], hi_b[leaving] = lo_e, hi_e
                move = theta if up else -theta
                try:
                    kernel.pivot(leaving, entering, w_full, move,
                                 x.item(entering) + move)
                except np.linalg.LinAlgError as exc:  # pragma: no cover
                    raise _NumericalTrouble(str(exc)) from exc
                if kernel.needs_refactor:
                    x[basis] = x_b
                    self.refactor()
                    kernel = self.kernel
                    d, x_b, lo_b, hi_b = kernel.start(obj, x, lo, hi)
                    d_col = d[:, None]
            if theta <= _EPS:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_SWITCH:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        else:
            raise RuntimeError(
                "revised simplex did not converge (cycling safeguard hit)"
            )
        x[basis] = x_b
        self.d = d
        return status, iteration


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

        # Slacks of the <= rows, then a surplus and an artificial per
        # >= row, each block in row order.
        slack, surplus = np.flatnonzero(~ge), np.flatnonzero(ge)
        self.art_start = n + m
        self.initial_basis = np.empty(m, dtype=np.int64)
        self.initial_basis[slack] = n + np.arange(slack.size)
        self.initial_basis[surplus] = n + m + np.arange(surplus.size)
        unit_row = np.concatenate([slack, surplus, surplus])
        unit_sign = np.concatenate([np.ones(slack.size),
                                    np.full(surplus.size, -1.0),
                                    np.ones(surplus.size)])
        # Signed structural columns.
        rows = np.repeat(np.arange(m), np.diff(a.indptr))
        super().__init__(m, n, rows, a.indices, a.data * sign[rows],
                         unit_row, unit_sign)


def _drive_out_artificials(sf: _StandardForm, simplex: _Simplex) -> None:
    """Pivot zero-valued basic artificials out, dense-solver order."""
    basis, kernel = simplex.basis, simplex.kernel
    for i in range(sf.m):
        if basis[i] >= sf.art_start:
            row = kernel.row(i)
            for j in range(sf.art_start):
                if abs(row[j]) > _EPS:
                    out = basis[i]
                    simplex.nonbasic[out], simplex.nonbasic_neg[out] = 1, -1
                    simplex.nonbasic[j] = simplex.nonbasic_neg[j] = 0.0
                    basis[i] = j
                    kernel.pivot(i, j, kernel.column(j))
                    break
            # All-zero row: redundant constraint; the artificial stays
            # basic at zero and is excluded from phase-2 pivoting.


def _phase_1(sp: SparseLP) -> Tuple[_StandardForm, _Simplex, bool, int]:
    """The standard form of ``sp``, a simplex on it, whether phase 1
    found a feasible basis, and its pivots.  Once feasible, artificial
    columns are frozen at zero: they never re-enter."""
    sf = _StandardForm(sp)
    simplex = _Simplex(sf, sf.rhs0, np.zeros(sf.total),
                       np.full(sf.total, np.inf), np.zeros(sf.total),
                       sf.initial_basis.copy())
    if sf.total == sf.art_start:
        return sf, simplex, True, 0
    obj = np.zeros(sf.total)
    obj[sf.art_start:] = -1.0
    status, pivots = simplex.optimize(obj)
    if status != "optimal" or float(sum(
            simplex.x[j] for j in simplex.basis if j >= sf.art_start)) > 1e-7:
        return sf, simplex, False, pivots
    _drive_out_artificials(sf, simplex)
    simplex.hi[sf.art_start:] = 0.0
    return sf, simplex, True, pivots


def _revised_leq(
    sp: SparseLP,
) -> Tuple[str, Optional[np.ndarray], int, Optional[Pricer], int]:
    """Maximize ``c'y`` s.t. ``A y <= b_shifted``, ``y >= 0``.

    Same return contract as the dense ``_simplex_leq`` — ``(status, y,
    pivots, pricer)`` — plus the number of fresh factorizations.
    """
    m, n = sp.a.shape
    if m == 0:
        if np.any(sp.c > _EPS):
            return "unbounded", None, 0, None, 0
        return "optimal", np.zeros(n), 0, partial(
            _unconstrained_prices, sp.c
        ), 0

    sf, simplex, feasible, pivots = _phase_1(sp)
    if not feasible:
        return "infeasible", None, pivots, None, simplex.factorizations

    obj2 = np.zeros(sf.total)
    obj2[:n] = sp.c
    status, iters = simplex.optimize(obj2)
    pivots += iters
    if status == "unbounded":
        return "unbounded", None, pivots, None, simplex.factorizations

    # Basis-pure final values and prices: recompute from pristine data
    # so the reported point, duals and reduced costs depend only on the
    # final basis, not the pivot path.
    try:
        simplex.refactor()
    except _NumericalTrouble:  # pragma: no cover
        pass
    return "optimal", simplex.x[:n].copy(), pivots, partial(
        _basis_prices, sf, simplex.kernel, obj2, simplex.basis
    ), simplex.factorizations


def _basis_prices(sf: _StandardForm, kernel, obj: np.ndarray,
                  basis: np.ndarray) -> Prices:
    """Duals and structural reduced costs: one ``btran`` plus ``price``
    on the final kernel, finished exactly like the dense solver's."""
    pi = kernel.btran(obj[basis])
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
        status, y, pivots, pricer, factorizations = _revised_leq(sp)
        solve_span.tag(status=status, pivots=pivots,
                       factorizations=factorizations)
    incr("lp.revised.solves")
    incr("lp.revised.pivots", pivots)
    _account(1, pivots, factorizations)
    if status != "optimal":
        return LPSolution(status, {}, float("nan"))
    x = y + sp.lb
    values = {v: float(x[j]) for j, v in enumerate(names)}
    return LPSolution(
        "optimal", values, lp.objective_value(values), pricer=pricer,
    )


def session_fits(m: int, n: int) -> bool:
    """Whether an LP of ``m`` rows and ``n`` variables has a session
    form (plus the pin and a floor row per variable) of at most
    ``SESSION_MAX_ROWS`` rows."""
    return m + 1 + n <= SESSION_MAX_ROWS


class SessionFallback(RuntimeError):
    """A max-min session cannot continue from its basis: the basic
    floors need a phase 1, an edit left the point infeasible, or the
    basis went singular.  The caller reruns the call cold."""


class MaxminSession:
    """One bounded-variable standard form for a whole max-min call.

    Opened straight from the LP's arrays (:class:`DenseLP`).  Columns:
    the LP's variables ``x`` (lower bound = the LP's lower bound, the
    basic share), the ladder level ``t``, and one slack per row.  Rows:
    the LP's rows, the objective pin ``-c.x <= -T*``, and one floor row
    ``w_v t - x_v <= 0`` per variable.  The methods are the ladder's
    steps, each an edit of bounds or objective that keeps the current
    point feasible, so only the base solve starts from the slack basis:

    * :meth:`solve_base` — maximize ``c.x`` with ``t`` fixed at 0 and
      the pin row's slack free;
    * :meth:`pin` — the pin row gets right-hand side ``-T*`` (its own
      activity at the base optimum) and its slack lower bound 0 (or
      stays free), and ``t`` is released;
    * :meth:`fix_face` — freeze, at their values, the variables the
      base optimum fixes on the whole pinned optimal face;
    * :meth:`raise_floor` — maximize ``t``;
    * :meth:`probe` — fix ``t`` at the level and maximize one ``x_v``;
    * :meth:`freeze` — fix ``x_v`` at its frozen value, free its floor
      row's slack, and bound ``t`` below by the level.

    Each optimization counts one ``lp.solves`` and opens one
    ``lp.solve`` span tagged with its ``session`` step, its pivots and
    its fresh factorizations (the base step's include the slack basis
    the session opens on).  Every read is live: values, levels and
    peaks are the basic values the pivots kept, a round's prices are
    the reduced costs its optimization kept, a freeze moves the basic
    values by one axpy, and only the pin re-derives them from pristine
    data.  The kernel is rebuilt only every
    ``REFACTOR_EVERY`` pivots and when an edit seems to break
    feasibility, so the results depend on the pivot path, which is
    deterministic.
    """

    def __init__(self, lp: DenseLP, weights: Sequence[float]) -> None:
        self.names = lp.names
        self.index = {v: j for j, v in enumerate(lp.names)}
        m, n = lp.a.shape
        rows = m + 1 + n
        self._t = n
        self._pin_row = m
        self._pin = n + 1 + m  # the pin row's slack column
        self._objective = [(lp.names[j], float(lp.c[j]))
                           for j in np.flatnonzero(lp.c)]
        # The structural block by rows: the LP's rows, the pin -c.x and
        # the floors w_v t - x_v; every row then gets its slack.
        block = np.zeros((rows, n + 1))
        block[:m, :n] = lp.a
        block[m, :n] = -lp.c
        block[m + 1 + np.arange(n), np.arange(n)] = -1.0
        block[m + 1:, n] = weights
        nonzero = block.nonzero()
        cols = _Columns(rows, n + 1, *nonzero, block[nonzero],
                        np.arange(rows, dtype=np.int64), np.ones(rows))
        total = cols.total
        lo = np.zeros(total)
        hi = np.full(total, np.inf)
        lo[:n] = lp.lb
        hi[n] = 0.0  # t is fixed at 0 for the base solve
        lo[self._pin] = -np.inf  # the pin row is inert until pin()
        x = np.zeros(total)
        x[:n] = lp.lb
        self._c = np.zeros(total)
        self._c[:n] = lp.c
        self._simplex = _Simplex(
            cols, np.concatenate([lp.b, np.zeros(1 + n)]), lo, hi, x,
            np.arange(n + 1, total, dtype=np.int64),
        )
        self._accounted = 0  # factorizations already tagged on a step
        # Every variable priced: the pinned face is then bounded, so the
        # face step (:meth:`fix_face`) leaves no later round unbounded.
        self._priced = bool(n) and bool(np.all(lp.c > 0.0))
        self._held = False  # whether the pin holds c.x at T*
        # A clique row the basic floors alone overfill needs phase 1,
        # which only the cold two-phase solve runs.
        self._needs_phase1 = bool(np.any(
            self._simplex.x[n + 1:n + 1 + m] < -_EPS
        ))

    @property
    def has_objective(self) -> bool:
        return bool(self._objective)

    def objective_value(self, values: Dict[str, float]) -> float:
        """``c.x`` at ``values``, summed like
        :meth:`LinearProgram.objective_value`."""
        return float(sum(c * values[v] for v, c in self._objective))

    # ------------------------------------------------------------------
    def _solve(self, obj: np.ndarray, step: str) -> str:
        simplex = self._simplex
        with span("lp.solve", vars=len(self.names),
                  rows=simplex.cols.m, backend="revised",
                  session=step) as solve_span:
            try:
                status, pivots = simplex.optimize(obj)
            except RuntimeError as exc:
                raise SessionFallback(str(exc)) from exc
            factorizations = simplex.factorizations - self._accounted
            self._accounted = simplex.factorizations
            solve_span.tag(status=status, pivots=pivots,
                           factorizations=factorizations)
        incr("lp.solves")
        incr("lp.solves.revised")
        incr("lp.revised.solves")
        incr("lp.revised.pivots", pivots)
        _account(1, pivots, factorizations)
        if status != "optimal":
            incr(f"lp.solves.{status}")
        return status

    def _unit(self, j: int) -> np.ndarray:
        obj = np.zeros(self._simplex.cols.total)
        obj[j] = 1.0
        return obj

    def _edited(self) -> None:
        """An edit must leave every basic value within ``_FEAS_TOL`` of
        its bounds, on the live kernel or else on a fresh one."""
        simplex = self._simplex
        if simplex.worst_violation() <= _FEAS_TOL:
            return
        try:
            simplex.refactor()
        except RuntimeError as exc:
            raise SessionFallback(str(exc)) from exc
        worst = simplex.worst_violation()
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
        return LPSolution("optimal", values, self.objective_value(values))

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
        # The one read from pristine data in a call: degenerate base
        # pivots can leave a basic value an ulp off the base vertex (a
        # clique the basic floors fill to its last ulp), and every later
        # step starts from this point.
        simplex.recompute()
        self._edited()
        self._held = hold

    def fix_face(self) -> Dict[str, float]:
        """Freeze every variable that is constant on the pinned optimal
        face, and return them with their values.  Only after a
        :meth:`pin` that holds, and only when every variable has a
        positive objective coefficient, so the face is bounded and no
        later round can turn unbounded; otherwise nothing is fixed.

        Any point of the pinned region, with ``t`` set to 0 and the
        floor slacks to ``x``, is an optimum of the base solve.  There
        ``c.x = T* + sum_N d_j (x_j - x_j*)`` over the nonbasic columns,
        and the optimal reduced costs make every term ``<= 0``; so each
        column with a nonzero reduced cost sits at its bound
        (complementary slackness), and ``x_B = x_B* - sum T_j (x_j -
        x_j*)`` over the other nonbasic columns.  A nonbasic ``x_v`` is
        fixed when every move its bounds allow lowers ``c.x`` by more
        than ``_EPS`` per unit; a basic one when its tableau row is zero
        (``<= _EPS``) on every movable nonbasic column.  ``t`` counts as
        movable: the base solve held it at 0, so its reduced cost proves
        nothing.  Each fixed variable is frozen at its live value and
        its floor row's slack freed: :meth:`freeze` without the level
        bound.
        """
        if not (self._held and self._priced):
            return {}
        simplex = self._simplex
        n, m = len(self.names), simplex.cols.m
        x, lo, hi, d = simplex.x, simplex.lo, simplex.hi, simplex.d
        nonbasic = simplex.nonbasic > 0.0
        movable = nonbasic & (((x < hi) & (d > -_EPS))
                              | ((x > lo) & (d < _EPS)))
        movable[self._t] = True
        kernel = simplex.kernel
        moves = np.column_stack([kernel.column(j)[:m]
                                 for j in np.flatnonzero(movable)])
        free = movable[:n]
        slots = np.flatnonzero(simplex.basis < n)
        free[simplex.basis[slots]] = (np.abs(moves[slots]) > _EPS).any(axis=1)
        fixed = np.flatnonzero(~free)
        lo[fixed] = hi[fixed] = x[fixed]
        lo[self._pin + 1 + fixed] = -np.inf
        return dict(zip([self.names[j] for j in fixed], x[fixed].tolist()))

    def raise_floor(
        self, free: Sequence[str],
    ) -> Optional[Tuple[float, Dict[str, float], List[float], List[float]]]:
        """Maximize ``t``: ``(level, values, floor duals, reduced
        costs)``, the last two for each ``free`` variable in order, or
        ``None`` when the LP is not optimal."""
        if self._solve(self._unit(self._t), "round") != "optimal":
            return None
        simplex = self._simplex
        # The reduced costs the optimization kept price the round: a
        # floor row's dual is minus its slack's reduced cost.
        d = simplex.d
        cols = np.array([self.index[v] for v in free], dtype=np.int64)
        return (float(simplex.x[self._t]), self._values(),
                (-d[self._pin + 1 + cols]).tolist(), d[cols].tolist())

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
        for v, value in values:
            j = self.index[v]
            simplex.lo[j] = simplex.hi[j] = value
            if simplex.nonbasic[j]:
                # x_v moves by delta: x_B -= delta * B^-1 a_v.
                simplex.x[simplex.basis] -= (value - simplex.x[j]) * \
                    simplex.kernel.column(j)[:simplex.cols.m]
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
    def maxmin_session(lp: Union[LinearProgram, DenseLP],
                       weights: Sequence[float]) -> Optional[MaxminSession]:
        """The warm session a whole max-min call on ``lp`` runs on, or
        ``None`` when its form would have more than
        ``SESSION_MAX_ROWS`` rows."""
        dense = isinstance(lp, DenseLP)
        if not session_fits(*(lp.a.shape if dense else (
                len(lp.constraints), len(lp.variables)))):
            return None
        return MaxminSession(lp if dense else DenseLP.from_problem(lp),
                             weights)

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
            sf, simplex, feasible, pivots = _phase_1(sp)
            if not feasible:
                return {t: None for t in targets}
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
        _account(len(targets), pivots, simplex.factorizations)
        return out
