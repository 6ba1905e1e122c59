"""Revised simplex over sparse clique-constraint matrices.

The dense tableau solver (:mod:`repro.lp.simplex`) carries the full
``m x (n + slacks)`` matrix through every pivot; at allocation-LP sizes
the tableau is overwhelmingly zero (clique rows touch only their member
flows, the max-min ladder's floor rows carry two nonzeros) and the
tableau update dominates every benchmarked profile.  This module keeps
the constraint matrix in the CSR/CSC form of :mod:`repro.lp.sparse` and
maintains only a factorized basis:

* **Basis inverse** — an LU factorization (``scipy.sparse.linalg.splu``
  when scipy is importable, a dense-numpy fallback otherwise) plus a
  product-form eta file; the file is folded into a fresh factorization
  every ``REFACTOR_EVERY`` pivots, which also re-derives the basic
  solution from pristine data and so bounds numerical drift.
* **Pricing** — Dantzig's rule (most positive reduced cost, smallest
  column index on ties) with an automatic switch to Bland's rule after a
  run of degenerate pivots, so termination is guaranteed without giving
  up the fast path.  The ratio test mirrors the dense solver's
  semantics: minimum ratio, ties within an ``_EPS`` band broken by the
  smallest basis column index.
* **Determinism** — identical inputs produce identical pivot sequences
  and therefore bitwise-identical results; the final solution is
  recomputed from the final basis against the pristine system (exactly
  like the dense solver's basis-pure recompute), so any path that lands
  on a given basis reports the same values.
* **Standard form** — byte-compatible with the dense solver: the same
  lower-bound shift and the same slack/surplus/artificial column
  layout.
* **Batched probes** — :meth:`RevisedBackend.probe_max_values` solves a
  family of LPs that differ only in their objective (the max-min
  ladder's per-variable saturation probes) against one shared
  factorization: feasibility is established once and each probe
  continues from the previous probe's optimal basis.

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

__all__ = ["BasisFactors", "RevisedBackend", "solve_revised"]

_EPS = 1e-9
#: Pivots between basis refactorizations (eta-file length bound).
REFACTOR_EVERY = 64
#: Consecutive degenerate pivots before pricing falls back to Bland.
_DEGENERATE_SWITCH = 40

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.sparse import csc_matrix as _scipy_csc
    from scipy.sparse.linalg import splu as _scipy_splu
    _HAVE_SPLU = True
except Exception:  # pragma: no cover - scipy is a declared dependency
    _HAVE_SPLU = False


class BasisFactors:
    """A factorized basis matrix with a product-form eta file.

    ``ftran(v)`` solves ``B x = v`` and ``btran(v)`` solves
    ``B^T x = v`` where ``B`` is the matrix passed to the constructor
    with every :meth:`update` applied on top: ``update(r, w)`` replaces
    basis column ``r`` by the column whose forward-transformed image is
    ``w`` (``w = ftran(new_column)`` computed *before* the update, i.e.
    the simplex direction vector).  Updates append eta vectors; call
    sites should rebuild via a fresh ``BasisFactors`` once
    :attr:`needs_refactor` turns true — the hypothesis suite pins the
    drift/refactorization behaviour against dense ``numpy`` solves.
    """

    def __init__(self, matrix, refactor_every: int = REFACTOR_EVERY)\
            -> None:
        matrix = np.asarray(matrix, dtype=float) \
            if not (_HAVE_SPLU and hasattr(matrix, "tocsc")) else matrix
        self.m = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("basis matrix must be square")
        self.refactor_every = int(refactor_every)
        self._etas: List[Tuple[int, np.ndarray]] = []
        if _HAVE_SPLU:
            sparse = matrix if hasattr(matrix, "tocsc") \
                else _scipy_csc(matrix)
            self._lu = _scipy_splu(sparse.tocsc())
            self._inv = None
        else:  # dense-numpy gate: correct, O(m^2) per solve
            self._lu = None
            self._inv = np.linalg.inv(matrix)

    @property
    def updates(self) -> int:
        return len(self._etas)

    @property
    def needs_refactor(self) -> bool:
        return len(self._etas) >= self.refactor_every

    def _base_solve(self, v: np.ndarray, trans: bool) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(v, trans="T" if trans else "N")
        inv = self._inv.T if trans else self._inv
        return inv @ v

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B x = v`` (forward transformation)."""
        x = self._base_solve(np.asarray(v, dtype=float), trans=False)
        for r, w in self._etas:
            xr = x[r] / w[r]
            if xr != 0.0:
                x = x - w * xr
            x[r] = xr
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T x = v`` (backward transformation)."""
        x = np.asarray(v, dtype=float).copy()
        for r, w in reversed(self._etas):
            xr = (x[r] - (w @ x - w[r] * x[r])) / w[r]
            x[r] = xr
        return self._base_solve(x, trans=True)

    def update(self, r: int, w: np.ndarray) -> None:
        """Replace basis column ``r``; ``w`` is the pre-update ftran of
        the incoming column (the simplex direction vector)."""
        if abs(w[r]) <= 0.0:
            raise np.linalg.LinAlgError(
                "singular eta update (zero pivot element)"
            )
        self._etas.append((int(r), np.asarray(w, dtype=float).copy()))


class _StandardForm:
    """The dense solver's standard form, column-sparse.

    Column layout and the lower-bound shift are identical to
    :func:`repro.lp.simplex._simplex_leq`: structural columns first,
    then one slack per ``<=`` row, one surplus and one artificial per
    negated (``>=``) row, in row order.
    """

    def __init__(self, sp: SparseLP) -> None:
        self.sp = sp
        a, b, lb = sp.a, sp.b, sp.lb
        self.m, self.n = a.shape
        b_shift = b - a.matvec(lb)
        ge = b_shift < -_EPS
        sign = np.where(ge, -1.0, 1.0)
        self.rhs0 = b_shift * sign
        self.ge_rows = ge

        # Signed structural columns (CSC for pricing and gathers).
        csc = a.to_csc()
        self.csc = CSCMatrix(csc.num_rows, csc.num_cols, csc.indptr,
                             csc.indices, csc.data * sign[csc.indices])

        num_slack = int(np.sum(~ge))
        num_surplus = int(np.sum(ge))
        num_art = num_surplus
        n = self.n
        self.total = n + num_slack + num_surplus + num_art
        self.art_start = n + num_slack + num_surplus

        self.unit_row = np.zeros(self.total - n, dtype=np.int64)
        self.unit_sign = np.zeros(self.total - n)
        self.initial_basis = np.empty(self.m, dtype=np.int64)
        self.art_cols: List[int] = []

        slack_j, surplus_j, art_j = n, n + num_slack, self.art_start
        for i in range(self.m):
            if ge[i]:
                self.unit_row[surplus_j - n] = i
                self.unit_sign[surplus_j - n] = -1.0
                self.unit_row[art_j - n] = i
                self.unit_sign[art_j - n] = 1.0
                self.initial_basis[i] = art_j
                self.art_cols.append(art_j)
                surplus_j += 1
                art_j += 1
            else:
                self.unit_row[slack_j - n] = i
                self.unit_sign[slack_j - n] = 1.0
                self.initial_basis[i] = slack_j
                slack_j += 1

    # ------------------------------------------------------------------
    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row indices, values)`` of standard-form column ``j``."""
        if j < self.n:
            return self.csc.column(j)
        k = j - self.n
        return (self.unit_row[k:k + 1], self.unit_sign[k:k + 1])

    def dense_column(self, j: int) -> np.ndarray:
        rows, vals = self.column(j)
        out = np.zeros(self.m)
        out[rows] = vals
        return out

    def price(self, y: np.ndarray) -> np.ndarray:
        """``z_j = y . a_j`` for every standard-form column."""
        z = np.empty(self.total)
        z[:self.n] = self.csc.rmatvec(y)
        z[self.n:] = self.unit_sign * y[self.unit_row]
        return z

    def basis_matrix(self, basis: Sequence[int]):
        """The basis matrix as scipy CSC (or dense under the gate).

        Assembled with vectorized gathers — one ``np.repeat`` pass over
        the structural columns' nonzero ranges plus a fancy-index for
        the unit columns — because this runs on every refactorization
        (every ``REFACTOR_EVERY`` pivots on large instances).
        """
        basis = np.asarray(basis, dtype=np.int64)
        struct = basis < self.n
        slots_s = np.flatnonzero(struct)
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
        slots_u = np.flatnonzero(~struct)
        uj = basis[slots_u] - self.n
        rows = np.concatenate([self.csc.indices[gather],
                               self.unit_row[uj]])
        cols = np.concatenate([np.repeat(slots_s, counts), slots_u])
        vals = np.concatenate([self.csc.data[gather],
                               self.unit_sign[uj]])
        if _HAVE_SPLU:
            return _scipy_csc(
                (vals, (rows, cols)), shape=(self.m, self.m)
            )
        dense = np.zeros((self.m, self.m))
        dense[rows, cols] = vals
        return dense

    def refactor(self, basis: np.ndarray) -> Tuple[BasisFactors,
                                                   np.ndarray]:
        """Fresh factors for ``basis`` plus the re-derived basic point."""
        factors = BasisFactors(self.basis_matrix(basis))
        x_b = factors.ftran(self.rhs0)
        x_b[np.abs(x_b) < 1e-12] = 0.0
        return factors, x_b


class _NumericalTrouble(RuntimeError):
    """Internal: basis became unfactorizable mid-solve."""


def _run_revised(
    sf: _StandardForm,
    factors: BasisFactors,
    x_b: np.ndarray,
    basis: np.ndarray,
    obj: np.ndarray,
    forbidden_from: Optional[int] = None,
) -> Tuple[str, int, BasisFactors, np.ndarray]:
    """Pivot to optimality in place; returns
    ``(status, pivots, factors, x_b)``."""
    m, total = sf.m, sf.total
    limit = forbidden_from if forbidden_from is not None else total
    max_iters = 500 * (m + total + 1)
    degenerate_run = 0
    bland = False

    for iteration in range(max_iters):
        y = factors.btran(obj[basis])
        d = obj - sf.price(y)
        d[basis] = 0.0
        view = d[:limit]
        eligible = np.flatnonzero(view > _EPS)
        if eligible.size == 0:
            return "optimal", iteration, factors, x_b
        if bland:
            entering = int(eligible[0])
        else:
            # Dantzig: most positive reduced cost; argmax returns the
            # smallest index among ties, keeping the choice deterministic.
            entering = int(np.argmax(view))

        w = factors.ftran(sf.dense_column(entering))
        candidates = np.flatnonzero(w > _EPS)
        if candidates.size == 0:
            return "unbounded", iteration, factors, x_b
        ratios = x_b[candidates] / w[candidates]
        best = float(ratios.min())
        band = candidates[ratios <= best + _EPS]
        leaving = int(band[np.argmin(basis[band])])
        theta = x_b[leaving] / w[leaving]

        x_b = x_b - theta * w
        x_b[leaving] = theta
        x_b[np.abs(x_b) < 1e-12] = 0.0
        try:
            factors.update(leaving, w)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise _NumericalTrouble(str(exc)) from exc
        basis[leaving] = entering

        if factors.needs_refactor:
            try:
                factors, x_b = sf.refactor(basis)
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                raise _NumericalTrouble(
                    f"refactorization failed: {exc}"
                ) from exc

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


def _drive_out_artificials(
    sf: _StandardForm,
    factors: BasisFactors,
    basis: np.ndarray,
) -> BasisFactors:
    """Pivot zero-valued basic artificials out, dense-solver order."""
    for i in range(sf.m):
        if basis[i] >= sf.art_start:
            e_i = np.zeros(sf.m)
            e_i[i] = 1.0
            row = sf.price(factors.btran(e_i))
            for j in range(sf.art_start):
                if abs(row[j]) > _EPS:
                    w = factors.ftran(sf.dense_column(j))
                    factors.update(i, w)
                    basis[i] = j
                    break
            # All-zero row: redundant constraint; the artificial stays
            # basic at zero and is excluded from phase-2 pivoting.
    return factors


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
    basis = sf.initial_basis.copy()
    factors, x_b = sf.refactor(basis)
    if sf.art_cols:
        obj1 = np.zeros(sf.total)
        obj1[sf.art_cols] = -1.0
        status, iters, factors, x_b = _run_revised(
            sf, factors, x_b, basis, obj1
        )
        pivots += iters
        if status == "unbounded":  # pragma: no cover - bounded
            return "infeasible", None, pivots, None
        phase1_obj = float(sum(
            x_b[i] for i in range(m) if basis[i] >= sf.art_start
        ))
        if phase1_obj > 1e-7:
            return "infeasible", None, pivots, None
        factors = _drive_out_artificials(sf, factors, basis)

    obj2 = np.zeros(sf.total)
    obj2[:n] = sp.c
    limit = sf.art_start if sf.art_cols else sf.total
    status, iters, factors, x_b = _run_revised(
        sf, factors, x_b, basis, obj2, forbidden_from=limit
    )
    pivots += iters
    if status == "unbounded":
        return "unbounded", None, pivots, None

    # Basis-pure final values and prices: recompute from pristine data
    # so the reported point, duals and reduced costs depend only on the
    # final basis, not the pivot path.
    try:
        factors, x_b = sf.refactor(basis)
    except (RuntimeError, np.linalg.LinAlgError):  # pragma: no cover
        pass
    y = np.zeros(sf.total)
    y[basis] = x_b
    y[np.abs(y) < 1e-12] = 0.0
    return "optimal", y[:n], pivots, partial(
        _basis_prices, sf, factors, obj2, basis
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


class RevisedBackend:
    """The ``"revised"`` solver backend, with batched max-min probes.

    Calling the instance solves one LP (used by
    :func:`repro.lp.solvers.solve`); :meth:`probe_max_values` answers a
    whole round of the max-min ladder's saturation probes — LPs over the
    *same* constraint system with single-variable objectives — against
    one shared factorization: phase 1 runs at most once, and each probe
    re-prices from the previous probe's optimal basis.
    """

    __name__ = "revised"

    def __call__(self, lp: LinearProgram) -> LPSolution:
        return solve_revised(lp)

    def probe_max_values(
        self, lp: LinearProgram, targets: Sequence[str]
    ) -> Dict[str, Optional[float]]:
        """Max feasible value of each target variable of ``lp``.

        Returns ``{target: value}`` with ``None`` for targets whose
        probe did not come back optimal (infeasible system, unbounded
        direction) — the caller treats ``None`` exactly as it treats a
        non-optimal per-probe solve.
        """
        targets = list(targets)
        if not targets:
            return {}
        names = lp.variables
        index = {v: j for j, v in enumerate(names)}
        for target in targets:
            if target not in index:
                raise KeyError(f"unknown probe target {target!r}")
        with span("lp.probe_batch", targets=len(targets),
                  rows=len(lp.constraints), backend="revised"):
            out = self._probe_batch(lp, targets, index)
        incr("lp.revised.probe_batches")
        incr("lp.revised.probes", len(targets))
        return out

    @staticmethod
    def _probe_batch(
        lp: LinearProgram,
        targets: List[str],
        index: Dict[str, int],
    ) -> Dict[str, Optional[float]]:
        sp = SparseLP.from_problem(lp)
        m, n = sp.a.shape
        if m == 0:
            # Unconstrained: every probe maximization is unbounded.
            return {t: None for t in targets}
        sf = _StandardForm(sp)
        basis = sf.initial_basis.copy()
        factors, x_b = sf.refactor(basis)

        if sf.art_cols:
            obj1 = np.zeros(sf.total)
            obj1[sf.art_cols] = -1.0
            status, _, factors, x_b = _run_revised(
                sf, factors, x_b, basis, obj1
            )
            phase1_obj = float(sum(
                x_b[i] for i in range(m) if basis[i] >= sf.art_start
            ))
            if status != "optimal" or phase1_obj > 1e-7:
                return {t: None for t in targets}
            factors = _drive_out_artificials(sf, factors, basis)
        limit = sf.art_start if sf.art_cols else sf.total

        results: Dict[str, Optional[float]] = {}
        obj = np.zeros(sf.total)
        for target in targets:
            j = index[target]
            obj[:] = 0.0
            obj[j] = 1.0
            status, _, factors, x_b = _run_revised(
                sf, factors, x_b, basis, obj, forbidden_from=limit
            )
            if status != "optimal":
                results[target] = None
                continue
            slots = np.flatnonzero(basis == j)
            shifted = float(x_b[slots[0]]) if slots.size else 0.0
            results[target] = shifted + float(sp.lb[j])
        return results
