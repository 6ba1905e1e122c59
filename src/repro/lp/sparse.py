"""Sparse (CSR/CSC) matrix layer for the revised-simplex backend.

Clique-constraint matrices are extremely sparse: a clique row touches
only the flows crossing that clique, and the max-min ladder's floor rows
(``t*w_v - x_v <= 0``) carry exactly two nonzeros.  Densifying them — as
:meth:`repro.lp.problem.LinearProgram.to_dense` does for the tableau
solver — wastes both memory (quadratic at 10k flows) and time (every
pivot sweeps mostly-zero columns).  This module provides the minimal
index/value-array representation the revised simplex needs:

* :class:`CSRMatrix` — compressed sparse rows (fast row access, matvec);
* :class:`CSCMatrix` — compressed sparse columns (fast column gather and
  the per-iteration ``A^T y`` pricing pass);
* :class:`SparseLP` — ``(c, A, b, lb)`` extracted from a
  :class:`~repro.lp.problem.LinearProgram` without ever materializing
  the dense matrix.

Everything is plain numpy; scipy is only touched by the LU
factorization in :mod:`repro.lp.revised`.  The hypothesis suite in
``tests/test_lp_sparse.py`` pins these classes against their dense numpy
equivalents (builders, CSC conversion, matvec/rmatvec).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .problem import Constraint, LinearProgram

__all__ = ["CSRMatrix", "CSCMatrix", "SparseLP"]


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed-sparse-row matrix over float64 index/value arrays.

    ``indptr`` has ``num_rows + 1`` entries; row ``i``'s nonzeros live at
    ``indices[indptr[i]:indptr[i+1]]`` / ``data[indptr[i]:indptr[i+1]]``.
    Column indices within a row are stored in ascending order, which
    makes equal matrices representation-identical (and comparisons in
    the property tests exact).
    """

    num_rows: int
    num_cols: int
    indptr: np.ndarray   # int64, len num_rows + 1
    indices: np.ndarray  # int64, len nnz
    data: np.ndarray     # float64, len nnz

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, num_rows: int, num_cols: int, rows, cols,
                 data) -> "CSRMatrix":
        """Build from coordinate triples (at most one per position)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
        return cls(num_rows, int(num_cols), indptr, cols[order],
                   np.asarray(data, dtype=float)[order])

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Tuple[int, float]]], num_cols: int
    ) -> "CSRMatrix":
        """Build from per-row ``(col, value)`` pairs (zeros dropped)."""
        r: List[int] = []
        c: List[int] = []
        v: List[float] = []
        for i, row in enumerate(rows):
            for j, value in row:
                if value:
                    r.append(i)
                    c.append(j)
                    v.append(value)
        return cls.from_coo(len(rows), num_cols, r, c, v)

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_csc(self) -> "CSCMatrix":
        return CSCMatrix.from_coo(
            self.num_rows, self.num_cols,
            np.repeat(np.arange(self.num_rows), np.diff(self.indptr)),
            self.indices, self.data,
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` via one pass over the nonzeros."""
        x = np.asarray(x, dtype=float)
        if self.nnz == 0:
            return np.zeros(self.num_rows)
        products = self.data * x[self.indices]
        row_of = np.repeat(
            np.arange(self.num_rows), np.diff(self.indptr)
        )
        return np.bincount(row_of, weights=products,
                           minlength=self.num_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y`` via one pass over the nonzeros."""
        y = np.asarray(y, dtype=float)
        if self.nnz == 0:
            return np.zeros(self.num_cols)
        row_of = np.repeat(
            np.arange(self.num_rows), np.diff(self.indptr)
        )
        return np.bincount(self.indices, weights=self.data * y[row_of],
                           minlength=self.num_cols)


@dataclass(frozen=True)
class CSCMatrix:
    """Compressed-sparse-column twin of :class:`CSRMatrix`.

    Column ``j``'s nonzeros live at
    ``indices[indptr[j]:indptr[j+1]]`` (row indices, ascending) /
    ``data[indptr[j]:indptr[j+1]]``.  This is the pricing-side layout:
    the revised simplex gathers one column per pivot (``B^-1 a_j``) and
    runs ``A^T y`` over all nonzeros once per iteration.
    """

    num_rows: int
    num_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, num_rows: int, num_cols: int, rows: np.ndarray,
                 cols: np.ndarray, data: np.ndarray) -> "CSCMatrix":
        """Build from coordinate triples (at most one per position)."""
        order = np.lexsort((rows, cols))
        indptr = np.zeros(num_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=num_cols), out=indptr[1:])
        return cls(num_rows, num_cols, indptr,
                   np.asarray(rows, dtype=np.int64)[order],
                   np.asarray(data, dtype=float)[order])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @cached_property
    def _col_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_cols), np.diff(self.indptr))

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row indices, values)`` of column ``j`` (views, not copies)."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` via one pass over the nonzeros."""
        return np.bincount(self.indices,
                           weights=self.data * np.asarray(x)[self._col_of],
                           minlength=self.num_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y``: the per-iteration pricing pass."""
        return np.bincount(self._col_of,
                           weights=self.data * np.asarray(y)[self.indices],
                           minlength=self.num_cols)


@dataclass(frozen=True)
class SparseLP:
    """``maximize c'x s.t. A x <= b, x >= lb`` with ``A`` kept sparse.

    ``(c, A, b, lb)`` is bit-identical to :meth:`LinearProgram.to_dense`
    — same variable registration order, same constraint order, same
    float values — so the revised backend solves exactly the LP the
    dense backend sees.
    """

    names: Tuple[str, ...]
    c: np.ndarray
    a: CSRMatrix
    b: np.ndarray
    lb: np.ndarray

    @classmethod
    def from_problem(cls, lp: LinearProgram) -> "SparseLP":
        names = lp.variables
        index = {v: j for j, v in enumerate(names)}
        n = len(names)
        c = np.zeros(n)
        for v, coeff in lp.objective.items():
            c[index[v]] = coeff
        rows = [
            [(index[v], coeff) for v, coeff in con.coeffs.items()]
            for con in lp.constraints
        ]
        a = CSRMatrix.from_rows(rows, n)
        b = np.array([con.bound for con in lp.constraints], dtype=float)
        lb = np.array([lp.lower_bounds.get(v, 0.0) for v in names])
        return cls(tuple(names), c, a, b, lb)

    def to_problem(self) -> LinearProgram:
        """The :class:`LinearProgram` of these arrays (constraints
        unlabelled): :meth:`from_problem` of it gives them back."""
        names = list(self.names)
        a = self.a
        return LinearProgram(
            _order=names,
            objective={names[j]: float(self.c[j])
                       for j in np.flatnonzero(self.c)},
            constraints=[
                Constraint({names[j]: v for j, v in zip(
                    a.indices[a.indptr[i]:a.indptr[i + 1]].tolist(),
                    a.data[a.indptr[i]:a.indptr[i + 1]].tolist())},
                    bound)
                for i, bound in enumerate(self.b.tolist())
            ],
            lower_bounds=dict(zip(names, self.lb.tolist())),
        )
