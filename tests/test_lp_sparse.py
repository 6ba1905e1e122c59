"""Property tests (hypothesis) for the sparse LP layer.

The revised backend's correctness reduces to three contracts checked
here against dense numpy reference implementations:

* ``CSRMatrix`` is a faithful encoding: ``from_rows`` matches an
  independent encoder representation-exactly, and the matvec/rmatvec
  kernels match ``@``;
* ``SparseLP.from_problem`` is bit-identical to
  ``LinearProgram.to_dense()`` — the revised backend provably solves
  the same LP the dense backend sees;
* both basis kernels stay numerically faithful to the exact basis
  inverse under random pivot (column-replacement) sequences — the
  ``BasisFactors`` eta file of large forms and the tableau of small
  ones — and a fresh refactorization agrees with the updated one.

``DenseLP.to_problem`` round-trips through ``SparseLP.from_problem``
exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.lp import CSRMatrix, LinearProgram, SparseLP, revised
from repro.lp.problem import DenseLP
from repro.lp.revised import BasisFactors

# Values drawn from a small exact set: sums and products stay exact in
# float64, so structural comparisons can be strict equality.
exact_floats = st.sampled_from(
    [0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 0.25]
)


@st.composite
def dense_matrices(draw, max_dim=6):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rows = draw(st.lists(
        st.lists(exact_floats, min_size=n, max_size=n),
        min_size=m, max_size=m,
    ))
    return np.array(rows, dtype=float).reshape(m, n)


@st.composite
def random_lps(draw, max_vars=5, max_cons=5):
    n = draw(st.integers(1, max_vars))
    names = [f"v{j}" for j in range(n)]
    lp = LinearProgram()
    for v in names:
        lp.add_variable(v)
    obj = draw(st.lists(exact_floats, min_size=n, max_size=n))
    lp.maximize({v: c for v, c in zip(names, obj) if c != 0.0})
    for coeffs in draw(st.lists(
        st.lists(exact_floats, min_size=n, max_size=n),
        min_size=0, max_size=max_cons,
    )):
        bound = draw(exact_floats)
        lp.add_constraint(
            {v: c for v, c in zip(names, coeffs) if c != 0.0}, bound
        )
    for v in names:
        if draw(st.booleans()):
            lp.set_lower_bound(v, abs(draw(exact_floats)))
    return lp


def assert_same_csr(a: CSRMatrix, b: CSRMatrix) -> None:
    """Representation-identical, not merely numerically equal."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def rows_of(dense: np.ndarray):
    """``dense`` as the per-row ``(col, value)`` pairs ``from_rows`` takes."""
    return [[(j, dense[i, j]) for j in range(dense.shape[1])]
            for i in range(dense.shape[0])]


def csr_reference(dense: np.ndarray) -> CSRMatrix:
    """An independent CSR encoder: scan each row's nonzeros in order."""
    m, n = dense.shape
    indptr = np.zeros(m + 1, dtype=np.int64)
    cols = [np.flatnonzero(dense[i]) for i in range(m)]
    for i, nz in enumerate(cols):
        indptr[i + 1] = indptr[i] + nz.size
    indices = (np.concatenate(cols) if cols
               else np.zeros(0, dtype=np.int64)).astype(np.int64)
    data = (np.concatenate([dense[i, nz] for i, nz in enumerate(cols)])
            if cols else np.zeros(0))
    return CSRMatrix(m, n, indptr, indices, data)


def dense_of(csr: CSRMatrix) -> np.ndarray:
    out = np.zeros(csr.shape)
    out[np.repeat(np.arange(csr.num_rows), np.diff(csr.indptr)),
        csr.indices] = csr.data
    return out


class TestCSRRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(dense=dense_matrices())
    def test_from_dense_to_dense_exact(self, dense):
        """Built from a dense matrix's rows, read back dense: exact."""
        csr = CSRMatrix.from_rows(rows_of(dense), dense.shape[1])
        assert np.array_equal(dense_of(csr), dense)

    @settings(max_examples=60, deadline=None)
    @given(dense=dense_matrices())
    def test_from_rows_matches_from_dense(self, dense):
        assert_same_csr(CSRMatrix.from_rows(rows_of(dense), dense.shape[1]),
                        csr_reference(dense))

    @settings(max_examples=60, deadline=None)
    @given(dense=dense_matrices())
    def test_nnz_and_row_view(self, dense):
        csr = CSRMatrix.from_rows(rows_of(dense), dense.shape[1])
        assert csr.nnz == int(np.count_nonzero(dense))
        for i in range(dense.shape[0]):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            cols = csr.indices[lo:hi]
            assert np.array_equal(cols, np.flatnonzero(dense[i]))
            assert np.array_equal(csr.data[lo:hi], dense[i, cols])


class TestKernelsVsDense:
    @settings(max_examples=60, deadline=None)
    @given(dense=dense_matrices(), data=st.data())
    def test_matvec_and_rmatvec(self, dense, data):
        m, n = dense.shape
        x = np.array(data.draw(st.lists(exact_floats, min_size=n,
                                        max_size=n)), dtype=float)
        y = np.array(data.draw(st.lists(exact_floats, min_size=m,
                                        max_size=m)), dtype=float)
        csr = csr_reference(dense)
        assert np.allclose(csr.matvec(x), dense @ x,
                           rtol=0, atol=1e-12)
        assert np.allclose(csr.rmatvec(y), dense.T @ y,
                           rtol=0, atol=1e-12)


class TestSparseLPFromProblem:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp=random_lps())
    def test_round_trip_bit_identical_to_dense(self, lp):
        sp = SparseLP.from_problem(lp)
        c_ref, a_ref, b_ref, lb_ref = lp.to_dense()
        assert sp.names == tuple(lp.variables)
        assert np.array_equal(sp.c, c_ref)
        assert np.array_equal(dense_of(sp.a), a_ref)
        assert np.array_equal(sp.b, b_ref)
        assert np.array_equal(sp.lb, lb_ref)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp=random_lps())
    def test_to_problem_round_trips(self, lp):
        sp = SparseLP.from_problem(lp)
        back = SparseLP.from_problem(DenseLP.from_problem(lp).to_problem())
        assert back.names == sp.names
        for field in ("c", "b", "lb"):
            assert np.array_equal(getattr(back, field), getattr(sp, field))
        assert_same_csr(back.a, sp.a)


# ----------------------------------------------------------------------
# BasisFactors under random pivot sequences
# ----------------------------------------------------------------------

@st.composite
def pivot_walks(draw, max_dim=5, max_pivots=12):
    """A well-conditioned start basis plus a random pivot sequence.

    Diagonal dominance keeps every intermediate basis provably
    nonsingular without rejection sampling; the per-step ``assume`` on
    the pivot element mirrors the solver, which never pivots on an
    ``_EPS``-small entry.
    """
    m = draw(st.integers(1, max_dim))
    entries = st.integers(-2, 2).map(float)
    start = np.array(draw(st.lists(
        st.lists(entries, min_size=m, max_size=m),
        min_size=m, max_size=m,
    ))) + 3.0 * m * np.eye(m)
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, m - 1),
            st.lists(entries, min_size=m, max_size=m),
        ),
        max_size=max_pivots,
    ))
    return start, [
        (r, np.array(col) + 3.0 * m * np.eye(m)[r])
        for r, col in steps
    ]


def _check_against_dense(factors, dense_b, rhs):
    assert np.allclose(factors.ftran(rhs),
                       np.linalg.solve(dense_b, rhs),
                       rtol=1e-8, atol=1e-8)
    assert np.allclose(factors.btran(rhs),
                       np.linalg.solve(dense_b.T, rhs),
                       rtol=1e-8, atol=1e-8)


class TestBasisFactorsStability:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(walk=pivot_walks(), data=st.data())
    def test_eta_file_tracks_dense_inverse(self, walk, data):
        start, steps = walk
        m = start.shape[0]
        rhs = np.array(data.draw(st.lists(
            st.integers(-3, 3).map(float), min_size=m, max_size=m,
        )))
        dense_b = start.copy()
        factors = BasisFactors(start)
        _check_against_dense(factors, dense_b, rhs)
        for r, col in steps:
            w = factors.ftran(col)
            assume(abs(w[r]) > 1e-6)  # never pivots on ~0
            factors.update(r, w)
            dense_b[:, r] = col
            _check_against_dense(factors, dense_b, rhs)
            # A fresh refactorization of the same basis agrees with
            # the updated one up to fp noise.
            _check_against_dense(BasisFactors(dense_b), dense_b, rhs)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(walk=pivot_walks(), data=st.data())
    def test_tableau_tracks_dense_inverse(self, walk, data):
        """The small-form kernel under the same walks: its tableau's
        unit block stays the basis inverse through rank-one pivots, and
        a fresh tableau of the same basis agrees."""
        start, steps = walk
        m = start.shape[0]
        rhs = np.array(data.draw(st.lists(
            st.integers(-3, 3).map(float), min_size=m, max_size=m,
        )))
        # Structural columns: the start basis, then each step's column;
        # one slack per row after them.
        struct = np.hstack([start] + [col[:, None] for _r, col in steps])
        rows, cols = np.nonzero(struct)
        form = revised._Columns(m, struct.shape[1], rows, cols,
                                struct[rows, cols], np.arange(m),
                                np.ones(m))
        basis = np.arange(m)
        kernel = revised._Tableau(form, basis)
        dense_b = start.copy()
        _check_against_dense(kernel, dense_b, rhs)
        for k, (r, col) in enumerate(steps):
            q = m + k
            w = kernel.column(q)
            assume(abs(w[r]) > 1e-6)  # never pivots on ~0
            basis[r] = q
            kernel.pivot(r, q, w)
            dense_b[:, r] = col
            _check_against_dense(kernel, dense_b, rhs)
            _check_against_dense(revised._Tableau(form, basis), dense_b,
                                 rhs)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(walk=pivot_walks(max_dim=4, max_pivots=6))
    def test_tiny_refactor_interval_flags_rebuild(self, walk):
        start, steps = walk
        factors = BasisFactors(start, refactor_every=1)
        assert not factors.needs_refactor
        for r, col in steps:
            w = factors.ftran(col)
            assume(abs(w[r]) > 1e-6)
            factors.update(r, w)
            assert factors.needs_refactor
            assert factors.updates >= 1
            break

    def test_zero_pivot_rejected(self):
        factors = BasisFactors(np.eye(2))
        w = factors.ftran(np.array([1.0, 0.0]))  # e1: w[1] == 0
        with pytest.raises(np.linalg.LinAlgError):
            factors.update(1, w)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            BasisFactors(np.ones((2, 3)))
