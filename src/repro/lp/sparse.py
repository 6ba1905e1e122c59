"""Sparse (CSR) matrix layer for the revised-simplex backend.

Clique-constraint matrices are extremely sparse: a clique row touches
only the flows crossing that clique, and the max-min ladder's floor rows
(``t*w_v - x_v <= 0``) carry exactly two nonzeros.  Densifying them — as
:meth:`repro.lp.problem.LinearProgram.to_dense` does for the tableau
solver — wastes both memory (quadratic at 10k flows) and time (every
pivot sweeps mostly-zero columns).  This module provides the minimal
index/value-array representation the revised simplex needs:

* :class:`CSRMatrix` — compressed sparse rows (fast row access, matvec);
* :class:`SparseLP` — ``(c, A, b, lb)`` extracted from a
  :class:`~repro.lp.problem.LinearProgram` without ever materializing
  the dense matrix.

Everything is plain numpy; :mod:`repro.lp.revised` keeps a large
form's columns as scipy CSC for its LU factorization.  The hypothesis
suite in ``tests/test_lp_sparse.py`` pins these classes against their
dense numpy equivalents (builders, matvec/rmatvec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .problem import LinearProgram

__all__ = ["CSRMatrix", "SparseLP"]


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
