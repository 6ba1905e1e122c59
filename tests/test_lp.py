"""Tests for the LP problem IR and the from-scratch simplex solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import (
    LinearProgram,
    lexicographic_maxmin,
    solve,
    solve_scipy,
    solve_simplex,
)
from repro.obs.registry import using_registry
from repro.obs.trace import using_tracer
from repro.verify import lp_objective_matches, solve_exact

#: Float backends that report duals and reduced costs.
PRICED_BACKENDS = ["simplex", "revised"]


def make_lp(objective, constraints, lower_bounds=None):
    lp = LinearProgram()
    lp.maximize(objective)
    for coeffs, bound in constraints:
        lp.add_constraint(coeffs, bound)
    for var, bound in (lower_bounds or {}).items():
        lp.set_lower_bound(var, bound)
    return lp


class TestProblemIR:
    def test_variable_order_is_registration_order(self):
        lp = LinearProgram()
        lp.maximize({"b": 1.0})
        lp.add_constraint({"a": 1.0, "b": 1.0}, 4.0)
        assert lp.variables == ["b", "a"]

    def test_feasibility_check(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 2.0)], {"x": 0.5})
        assert lp.is_feasible({"x": 1.0})
        assert not lp.is_feasible({"x": 3.0})
        assert not lp.is_feasible({"x": 0.1})

    def test_objective_value(self):
        lp = make_lp({"x": 2.0, "y": 1.0}, [])
        assert lp.objective_value({"x": 1.0, "y": 3.0}) == 5.0

    def test_dense_form(self):
        lp = make_lp({"x": 1.0}, [({"x": 2.0, "y": 1.0}, 3.0)], {"y": 1.0})
        c, a, b, lb = lp.to_dense()
        assert c.tolist() == [1.0, 0.0]
        assert a.tolist() == [[2.0, 1.0]]
        assert b.tolist() == [3.0]
        assert lb.tolist() == [0.0, 1.0]

    def test_constraint_tightness(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 2.0)])
        sol = solve(lp)
        assert lp.constraints[0].is_tight(sol.values)

    def test_pretty_renders(self):
        lp = make_lp({"x": 1.0}, [({"x": 2.0}, 1.0)], {"x": 0.25})
        text = lp.pretty()
        assert "maximize" in text and "2*x <= 1" in text
        assert "x >= 0.25" in text


class TestSimplexBasics:
    def test_simple_bounded(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 5.0)])
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol["x"] == pytest.approx(5.0)

    def test_two_variables(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6
        lp = make_lp({"x": 1.0, "y": 1.0},
                     [({"x": 1.0, "y": 2.0}, 4.0),
                      ({"x": 3.0, "y": 1.0}, 6.0)])
        sol = solve_simplex(lp)
        assert sol.objective == pytest.approx(2.8)
        assert sol["x"] == pytest.approx(1.6)
        assert sol["y"] == pytest.approx(1.2)

    def test_lower_bounds_shift(self):
        lp = make_lp({"x": 1.0, "y": 1.0},
                     [({"x": 1.0, "y": 1.0}, 3.0)],
                     {"x": 1.0, "y": 0.5})
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)
        assert sol["x"] >= 1.0 - 1e-9
        assert sol["y"] >= 0.5 - 1e-9

    def test_infeasible_lower_bounds(self):
        lp = make_lp({"x": 1.0, "y": 1.0},
                     [({"x": 1.0, "y": 1.0}, 1.0)],
                     {"x": 0.8, "y": 0.8})
        sol = solve_simplex(lp)
        assert sol.status == "infeasible"

    def test_unbounded(self):
        lp = make_lp({"x": 1.0}, [({"y": 1.0}, 1.0)])
        sol = solve_simplex(lp)
        assert sol.status == "unbounded"

    def test_empty_lp(self):
        sol = solve_simplex(LinearProgram())
        assert sol.is_optimal
        assert sol.objective == 0.0

    def test_no_constraints_zero_objective(self):
        lp = LinearProgram()
        lp.add_variable("x", objective_coeff=0.0)
        sol = solve_simplex(lp)
        assert sol.is_optimal

    def test_paper_fig1_lp(self):
        lp = make_lp({"r1": 1.0, "r2": 1.0},
                     [({"r1": 2.0}, 1.0), ({"r1": 1.0, "r2": 2.0}, 1.0)],
                     {"r1": 0.25, "r2": 0.25})
        sol = solve_simplex(lp)
        assert sol["r1"] == pytest.approx(0.5)
        assert sol["r2"] == pytest.approx(0.25)

    def test_paper_fig6_lp_objective(self):
        lp = make_lp(
            {f"r{i}": 1.0 for i in range(1, 6)},
            [({"r1": 3.0}, 1.0),
             ({"r1": 2.0, "r2": 1.0}, 1.0),
             ({"r2": 1.0, "r3": 1.0}, 1.0),
             ({"r3": 1.0, "r4": 1.0}, 1.0),
             ({"r4": 2.0, "r5": 1.0}, 1.0)],
            {f"r{i}": 0.125 for i in range(1, 6)},
        )
        sol = solve_simplex(lp)
        assert sol.objective == pytest.approx(1 / 3 + 1 / 3 + 2 / 3
                                              + 1 / 8 + 3 / 4)

    def test_degenerate_constraints(self):
        # Redundant constraint should not break phase 1/2.
        lp = make_lp({"x": 1.0},
                     [({"x": 1.0}, 2.0), ({"x": 2.0}, 4.0)])
        sol = solve_simplex(lp)
        assert sol["x"] == pytest.approx(2.0)


def cross_check(lp, tol=1e-7):
    """The dense simplex's solution of ``lp``, asserted to agree with
    scipy's on status and objective."""
    ours, theirs = solve(lp, "simplex"), solve(lp, "scipy")
    assert ours.status == theirs.status, (ours.status, theirs.status)
    if ours.is_optimal:
        assert abs(ours.objective - theirs.objective) <= tol
    return ours


class TestScipyBackend:
    def test_agrees_on_simple_lp(self):
        lp = make_lp({"x": 1.0, "y": 2.0},
                     [({"x": 1.0, "y": 1.0}, 10.0)])
        ours = solve_simplex(lp)
        theirs = solve_scipy(lp)
        assert ours.objective == pytest.approx(theirs.objective)

    def test_cross_check_passes(self):
        lp = make_lp({"x": 1.0}, [({"x": 3.0}, 2.0)], {"x": 0.1})
        sol = cross_check(lp)
        assert sol.is_optimal

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            solve(LinearProgram(), backend="nope")


class TestBackendSpec:
    """``solve`` takes a plain callable as its backend."""

    def test_callable_backend_threads_through_solve(self):
        calls = []

        def dense_twin(lp):
            calls.append(lp)
            return solve_simplex(lp)

        lp = make_lp({"x": 1.0, "y": 2.0},
                     [({"x": 1.0, "y": 1.0}, 4.0), ({"y": 1.0}, 3.0)],
                     {"x": 0.5})
        with using_registry() as reg:
            sol = solve(lp, backend=dense_twin)
        assert sol.is_optimal
        assert sol.values == solve_simplex(lp).values
        assert calls == [lp]
        assert reg.counters["lp.solves.dense_twin"].value == 1

    def test_unknown_string_backend_still_raises(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 2.0)])
        with pytest.raises(ValueError, match="unknown LP backend"):
            solve(lp, backend="no-such-backend")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_simplex_matches_scipy_on_random_allocation_lps(n, m, seed):
    """Property: our simplex and HiGHS agree on clique-style LPs.

    The generated LPs mirror the paper's structure: non-negative
    coefficients, positive capacities, small lower bounds — always
    feasible and bounded.
    """
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    names = [f"r{i}" for i in range(n)]
    lp.maximize({v: 1.0 for v in names})
    for _ in range(m):
        support = rng.random(n) < 0.7
        if not support.any():
            support[rng.integers(n)] = True
        coeffs = {
            names[i]: float(rng.integers(1, 4))
            for i in range(n) if support[i]
        }
        lp.add_constraint(coeffs, float(rng.uniform(1.0, 3.0)))
    for v in names:
        lp.set_lower_bound(v, float(rng.uniform(0.0, 0.05)))
    ours = solve_simplex(lp)
    theirs = solve_scipy(lp)
    assert ours.status == theirs.status
    if ours.is_optimal:
        assert ours.objective == pytest.approx(theirs.objective, abs=1e-6)
        assert lp.is_feasible(ours.values, tol=1e-6)


def assert_optimal_dual(lp, sol):
    """``sol``'s prices are an optimal dual of ``lp``.

    For ``max c.x  s.t.  A x <= b,  x >= lb`` the dual is
    ``min pi.(b - A lb) + c.lb  s.t.  pi >= 0,  c - A^T pi <= 0``: the
    prices must be dual feasible, the reported reduced costs must be
    ``c - A^T pi``, and the dual objective must equal the exact-Fraction
    primal optimum (zero duality gap).  The exact optimum is the float
    oracle's, so one-ulp infeasible data (e.g. ``7 * float(B/7) > B``)
    compares against the relaxed exact LP, as the fuzzer does.
    """
    c, a, b, lb = lp.to_dense()
    pi = np.array(sol.duals)
    reduced = np.array(sol.reduced_costs)
    assert pi.shape == b.shape and reduced.shape == c.shape
    assert (pi >= -1e-9).all(), pi
    assert (reduced <= 1e-9).all(), reduced
    assert np.abs(reduced - (c - a.T @ pi)).max(initial=0.0) <= 1e-9
    report = lp_objective_matches(lp)
    assert report["ok"], report
    dual_objective = pi @ (b - a @ lb) + c @ lb
    assert abs(dual_objective - report["exact_objective"]) <= 1e-7


def random_clique_lp(n, m, seed, weighted, pinned):
    """A Prop. 2-shaped LP: clique rows over random supports, small
    lower bounds, optionally weighted objective and a ``-sum x <= -L``
    row like the max-min ladder's objective pin (negative rhs after the
    lower-bound shift, so the solver negates it into ``>=`` form)."""
    rng = np.random.default_rng(seed)
    names = [f"r{i}" for i in range(n)]
    lp = LinearProgram()
    lp.maximize({v: float(rng.integers(1, 4)) if weighted else 1.0
                 for v in names})
    for _ in range(m):
        support = rng.random(n) < 0.7
        if not support.any():
            support[rng.integers(n)] = True
        lp.add_constraint(
            {names[i]: float(rng.integers(1, 4))
             for i in range(n) if support[i]},
            float(rng.uniform(1.0, 3.0)),
        )
    lower = {v: float(rng.uniform(0.0, 0.05)) for v in names}
    for v, bound in lower.items():
        lp.set_lower_bound(v, bound)
    if pinned:
        lp.add_constraint({v: -1.0 for v in names},
                          -(sum(lower.values()) + 0.1))
    return lp


@pytest.mark.parametrize("backend", PRICED_BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
    pinned=st.booleans(),
)
def test_duals_are_optimal_on_random_clique_lps(
    backend, n, m, seed, weighted, pinned
):
    lp = random_clique_lp(n, m, seed, weighted, pinned)
    sol = solve(lp, backend)
    if solve_exact(lp).is_optimal:
        assert sol.is_optimal
        assert_optimal_dual(lp, sol)


@pytest.mark.parametrize("backend", PRICED_BACKENDS)
def test_negated_row_dual_prices_the_callers_row(backend):
    """``x + y <= 4``, ``-x <= -3`` (x >= 3), max ``y``: the binding
    lower row ``-x <= -3`` prices at 1, as the caller wrote it."""
    lp = make_lp({"y": 1.0}, [({"x": 1.0, "y": 1.0}, 4.0),
                              ({"x": -1.0}, -3.0)])
    sol = solve(lp, backend)
    assert sol.values == {"y": 1.0, "x": 3.0}
    assert sol.duals == (1.0, 1.0)
    assert sol.reduced_costs == (0.0, 0.0)


def test_scipy_backend_reports_no_prices():
    sol = solve(make_lp({"x": 1.0}, [({"x": 1.0}, 2.0)]), "scipy")
    assert sol.duals is None and sol.reduced_costs is None


class TestLexicographicMaxmin:
    def test_two_tier_split_example(self):
        """Reproduces the (3B/8, 3B/8) split of Sec. III."""
        lp = make_lp(
            {"r11": 1.0, "r12": 1.0, "r21": 1.0, "r22": 1.0},
            [({"r11": 1.0, "r12": 1.0}, 1.0),
             ({"r12": 1.0, "r21": 1.0, "r22": 1.0}, 1.0)],
            {v: 0.25 for v in ("r11", "r12", "r21", "r22")},
        )
        sol = lexicographic_maxmin(lp, fix_objective=True)
        assert sol.objective == pytest.approx(1.75, abs=1e-6)
        assert sol["r11"] == pytest.approx(0.75, abs=1e-5)
        assert sol["r12"] == pytest.approx(0.25, abs=1e-5)
        assert sol["r21"] == pytest.approx(0.375, abs=1e-5)
        assert sol["r22"] == pytest.approx(0.375, abs=1e-5)

    @pytest.mark.parametrize("backend", PRICED_BACKENDS)
    def test_dual_certificate_replaces_probes(self, backend):
        """The two-tier split.  On the cold ladder (``simplex``) the
        raise-floor duals certify four of the five saturations, so one
        probe LP is left.  The revised session's optimal face already
        fixes ``r11 = 0.75`` and ``r12 = 0.25``, and its one round
        certifies ``r21 = r22 = 0.375`` with no probe.  scipy, which
        reports no prices, probes all five and lands on the same
        split."""
        lp = make_lp(
            {"r11": 1.0, "r12": 1.0, "r21": 1.0, "r22": 1.0},
            [({"r11": 1.0, "r12": 1.0}, 1.0),
             ({"r12": 1.0, "r21": 1.0, "r22": 1.0}, 1.0)],
            {v: 0.25 for v in ("r11", "r12", "r21", "r22")},
        )
        tags = {}
        for name in (backend, "scipy"):
            with using_tracer() as tracer:
                sol = lexicographic_maxmin(lp, backend=name)
            (span,) = [r for r in tracer.to_records()
                       if r["name"] == "lp.maxmin"]
            tags[name] = span["tags"]
            assert sol["r11"] == pytest.approx(0.75, abs=1e-9)
            assert sol["r21"] == pytest.approx(0.375, abs=1e-9)
            assert sol["r22"] == pytest.approx(0.375, abs=1e-9)
        proof = {name: (t["fixed"], t["certified"], t["probed"])
                 for name, t in tags.items()}
        assert proof[backend] == {"simplex": (0, 4, 1),
                                  "revised": (2, 2, 0)}[backend]
        assert proof[backend][2] <= 1  # the face step adds no probe
        assert proof["scipy"] == (0, 0, 5)

    def test_pure_maxmin_without_objective_pin(self):
        lp = make_lp({"x": 1.0, "y": 1.0},
                     [({"x": 1.0, "y": 1.0}, 1.0)])
        sol = lexicographic_maxmin(lp, fix_objective=False)
        assert sol["x"] == pytest.approx(0.5, abs=1e-5)
        assert sol["y"] == pytest.approx(0.5, abs=1e-5)

    def test_weighted_maxmin(self):
        lp = make_lp({"x": 1.0, "y": 1.0},
                     [({"x": 1.0, "y": 1.0}, 3.0)])
        sol = lexicographic_maxmin(lp, weights={"x": 2.0, "y": 1.0},
                                   fix_objective=False)
        assert sol["x"] == pytest.approx(2.0, abs=1e-4)
        assert sol["y"] == pytest.approx(1.0, abs=1e-4)

    def test_infeasible_passthrough(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 0.5)], {"x": 1.0})
        sol = lexicographic_maxmin(lp)
        assert sol.status == "infeasible"

    def test_rejects_nonpositive_weight(self):
        lp = make_lp({"x": 1.0}, [({"x": 1.0}, 1.0)])
        with pytest.raises(ValueError):
            lexicographic_maxmin(lp, weights={"x": 0.0})
