"""Differential suite for the sparse revised-simplex backend.

Three-way agreement — revised vs dense simplex vs exact-``Fraction``
oracle — on every LP the reproduction generates: the full 12-scenario
library (all fig benchmarks included), the max-min-refined allocations,
and the degenerate corners (unbounded, infeasible, and the one-ulp
borderline instance the fuzzer checked into ``tests/regressions/``).
Statuses must agree *exactly*; optimal objectives and max-min-refined
rates within 1e-9.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.allocation import (
    basic_fairness_lp_allocation,
    build_basic_fairness_lp,
)
from repro.core.contention import ContentionAnalysis

from repro.lp import (
    LinearProgram,
    RevisedBackend,
    lexicographic_maxmin,
    solve,
    solve_revised,
    solve_simplex,
)
from repro.lp import revised as revised_module
from repro.lp.problem import DenseLP
from repro.lp.revised import SessionFallback
from repro.obs.registry import using_registry
from repro.obs.trace import using_tracer
from repro.resilience import ResilientLPBackend
from repro.scenarios import (
    cross,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    grid_scenario,
    parallel_chains,
    star,
)
from repro.scenarios.io import scenario_from_dict
from repro.verify import lp_objective_matches, solve_exact
from tests.test_lp import PRICED_BACKENDS, assert_optimal_dual

RATE_TOL = 1e-9

LIBRARY = {
    "fig1": fig1.make_scenario,
    "fig2_single": fig2.make_single_hop_scenario,
    "fig2_multi": fig2.make_multi_hop_scenario,
    "fig3_chain": fig3.make_chain_scenario,
    "fig3_shortcut": fig3.make_shortcut_scenario,
    "fig4": fig4.make_scenario,
    "fig5": fig5.make_scenario,
    "fig6": fig6.make_scenario,
    "parallel_chains": parallel_chains,
    "cross": cross,
    "grid": grid_scenario,
    "star": star,
}

BORDERLINE = (
    Path(__file__).parent / "regressions" / "data"
    / "verify-reproducer-s0-c27-lp.float_vs_exact.json"
)


def group_lps(scenario):
    analysis = ContentionAnalysis(scenario)
    return [
        build_basic_fairness_lp(analysis, group, scenario.capacity)
        for group in analysis.groups
    ]


class TestScenarioLibraryDifferential:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_group_lps_three_way_agreement(self, name):
        """Every Prop. 2 group LP: statuses exact, objectives <= 1e-9."""
        for lp in group_lps(LIBRARY[name]()):
            dense = solve_simplex(lp)
            revised = solve_revised(lp)
            exact = solve_exact(lp)
            assert revised.status == dense.status
            if dense.is_optimal:
                assert abs(revised.objective - dense.objective) <= RATE_TOL
                if exact.status == "optimal":
                    assert abs(
                        revised.objective - float(exact.objective)
                    ) <= RATE_TOL

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_revised_passes_the_float_vs_exact_oracle(self, name):
        """Zero oracle disagreements (incl. borderline classification)."""
        for lp in group_lps(LIBRARY[name]()):
            report = lp_objective_matches(lp, backend="revised")
            assert report["ok"], report
            assert report["backend"] == "revised"

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_maxmin_refined_rates_agree(self, name):
        """The paper-reported allocation: per-flow rates within 1e-9.

        Raw LP vertices may legitimately differ between backends on a
        degenerate optimal face; the lexicographic max-min refinement is
        what makes the allocation unique, so rate agreement is asserted
        after refinement — exactly what every experiment consumes.
        """
        analysis = ContentionAnalysis(LIBRARY[name]())
        try:
            dense = basic_fairness_lp_allocation(analysis, backend="simplex")
        except RuntimeError:
            # fig3's shortcut: the basic floors alone overfill the clique
            # (the paper's motivation for virtual lengths).  The revised
            # backend must reach the same infeasible verdict.
            with pytest.raises(RuntimeError):
                basic_fairness_lp_allocation(analysis, backend="revised")
            return
        revised = basic_fairness_lp_allocation(analysis, backend="revised")
        assert set(dense.shares) == set(revised.shares)
        for fid, rate in dense.shares.items():
            assert abs(revised.shares[fid] - rate) <= RATE_TOL, (
                name, fid, rate, revised.shares[fid],
            )


class TestDuals:
    """Both backends read an optimal dual off their final basis."""

    @pytest.mark.parametrize("backend", PRICED_BACKENDS)
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_library_group_lp_duals_are_optimal(self, name, backend):
        for lp in group_lps(LIBRARY[name]()):
            sol = solve(lp, backend)
            if sol.is_optimal:
                assert_optimal_dual(lp, sol)


class TestDegenerateCases:
    def test_unbounded_status_exact(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 1.0})
        lp.add_constraint({"x": 1.0}, 1.0)
        assert solve_revised(lp).status == "unbounded"
        assert solve_simplex(lp).status == "unbounded"
        assert solve_exact(lp).status == "unbounded"

    def test_infeasible_status_exact(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.add_constraint({"x": -1.0}, -5.0)  # x >= 5
        lp.add_constraint({"x": 1.0}, 1.0)    # x <= 1
        assert solve_revised(lp).status == "infeasible"
        assert solve_simplex(lp).status == "infeasible"
        assert solve_exact(lp).status == "infeasible"

    def test_no_constraints_matches_dense(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        assert solve_revised(lp).status == "unbounded"
        bounded = LinearProgram()
        bounded.add_variable("x")
        bounded.maximize({})
        assert solve_revised(bounded).status == \
            solve_simplex(bounded).status == "optimal"

    def test_empty_lp(self):
        lp = LinearProgram()
        assert solve_revised(lp).status == "optimal"
        assert solve_revised(lp).objective == 0.0

    def test_negative_shifted_rhs_needs_phase1(self):
        """Lower bounds exceeding slack force the phase-1 path."""
        lp = LinearProgram()
        lp.maximize({"a": 1.0})
        lp.add_variable("b")
        lp.set_lower_bound("b", 2.0)
        lp.add_constraint({"a": 1.0, "b": -1.0}, -1.0)  # a <= b - 1
        lp.add_constraint({"a": 1.0, "b": 1.0}, 10.0)
        dense = solve_simplex(lp)
        revised = solve_revised(lp)
        assert revised.status == dense.status == "optimal"
        assert revised.values == dense.values

    def test_one_ulp_borderline_statuses_match_dense(self):
        """The regression instance where float data is exactly infeasible
        by one ulp: the revised backend must report the same statuses as
        the dense solver on every group LP, and the oracle must classify
        the pair as (flagged) borderline agreement — not a mismatch."""
        doc = json.loads(BORDERLINE.read_text())
        scenario = scenario_from_dict(doc["scenario"])
        hit = False
        for lp in group_lps(scenario):
            assert solve_revised(lp).status == solve_simplex(lp).status
            report = lp_objective_matches(lp, backend="revised")
            assert report["ok"], report
            if report.get("borderline"):
                hit = True
                assert report["simplex_status"] == "optimal"
                assert report["exact_status"] == "infeasible"
        assert hit, "data file no longer pins the one-ulp artifact"


def beale_cycling_lp():
    """Beale's LP: Dantzig pricing with a smallest-index leaving rule
    cycles through degenerate bases forever; the optimum is 5/4 at
    ``x4 = x6 = 1``."""
    lp = LinearProgram()
    lp.maximize({"x4": 0.75, "x5": -20.0, "x6": 0.5, "x7": -6.0})
    lp.add_constraint({"x4": 0.25, "x5": -8.0, "x6": -1.0, "x7": 9.0}, 0.0)
    lp.add_constraint({"x4": 0.5, "x5": -12.0, "x6": -0.5, "x7": 3.0}, 0.0)
    lp.add_constraint({"x6": 1.0}, 1.0)
    return lp


class TestBoundedSolve:
    """Every solve returns: a cycling LP ends at its optimum, and a solve
    that cannot end raises instead of running forever."""

    def test_beale_reaches_optimal_after_the_bland_switch(self):
        with using_registry() as reg:
            sol = solve(beale_cycling_lp(), backend="revised")
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.25, abs=1e-12)
        assert [sol[v] for v in ("x4", "x5", "x6", "x7")] == \
            pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
        # Dantzig pricing cycled until the degenerate run switched
        # pricing to Bland's rule, which ended it.
        pivots = reg.counters["lp.revised.pivots"].value
        assert pivots > revised_module._DEGENERATE_SWITCH

    def test_beale_through_lexicographic_maxmin(self):
        sol = lexicographic_maxmin(beale_cycling_lp(), backend="revised")
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.25, abs=1e-12)
        assert [sol[v] for v in ("x4", "x5", "x6", "x7")] == \
            pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_exact_stage_terminates_on_beale(self):
        from fractions import Fraction

        exact = solve_exact(beale_cycling_lp())
        assert exact.status == "optimal"
        assert exact.objective == Fraction(5, 4)

    def test_pivot_cap_raises_when_pricing_never_switches(self,
                                                          monkeypatch):
        monkeypatch.setattr(revised_module, "_DEGENERATE_SWITCH", 10 ** 9)
        with pytest.raises(RuntimeError, match="cycling safeguard"):
            solve(beale_cycling_lp(), backend="revised")


class TestBackendSpanTag:
    """Every ``lp.solve`` span says which backend produced it."""

    @staticmethod
    def _solve_span(solve_fn):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 2.0})
        lp.add_constraint({"x": 1.0, "y": 1.0}, 4.0)
        lp.add_constraint({"y": 1.0}, 3.0)
        lp.set_lower_bound("x", 0.5)
        with using_tracer() as tracer:
            solve_fn(lp)
        return next(r for r in tracer.to_records()
                    if r["name"] == "lp.solve")

    def test_revised_solve_span_tagged(self):
        assert self._solve_span(solve_revised)["tags"]["backend"] == \
            "revised"

    def test_dense_solve_span_tagged(self):
        assert self._solve_span(solve_simplex)["tags"]["backend"] == \
            "simplex"


def open_session(lp, weights=None):
    return RevisedBackend.maxmin_session(
        DenseLP.from_problem(lp),
        [float((weights or {}).get(v, 1.0)) for v in lp.variables])


class TestBatchedProbes:
    """probe_max_values == one solve per target, same verdicts."""

    @staticmethod
    def _region():
        lp = LinearProgram()
        for v in ("x", "y", "z"):
            lp.add_variable(v)
        lp.add_constraint({"x": 1.0, "y": 1.0}, 4.0)
        lp.add_constraint({"y": 1.0, "z": 1.0}, 3.0)
        lp.add_constraint({"x": 1.0, "z": 2.0}, 5.0)
        return lp

    def test_batch_equals_per_probe_loop(self):
        lp = self._region()
        batch = RevisedBackend().probe_max_values(lp, ["x", "y", "z"])
        for target, peak in batch.items():
            probe = lp.clone()
            probe.objective = {target: 1.0}
            sol = solve_revised(probe)
            assert sol.is_optimal and peak is not None
            assert abs(peak - sol.values[target]) <= RATE_TOL

    def test_unbounded_probe_returns_none(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("free")
        lp.add_constraint({"x": 1.0}, 1.0)
        out = RevisedBackend().probe_max_values(lp, ["x", "free"])
        assert out["free"] is None
        assert abs(out["x"] - 1.0) <= RATE_TOL

    def test_infeasible_region_every_probe_none(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.set_lower_bound("x", 5.0)
        lp.add_constraint({"x": 1.0}, 2.0)
        out = RevisedBackend().probe_max_values(lp, ["x"])
        assert out == {"x": None}

    def test_empty_targets(self):
        assert RevisedBackend().probe_max_values(self._region(), []) == {}

    def test_maxmin_with_and_without_batching_agree(self):
        """The ladder run through batched probes (revised, its session
        gated off) matches the per-probe loop (dense) variable by
        variable."""
        lp = self._region()
        lp.objective = {"x": 1.0, "y": 1.0, "z": 1.0}
        with mock.patch.object(revised_module, "SESSION_MAX_ROWS", 0), \
                using_registry() as registry:
            for fix in (True, False):
                dense = lexicographic_maxmin(lp, fix_objective=fix,
                                             backend="simplex")
                revised = lexicographic_maxmin(lp, fix_objective=fix,
                                               backend="revised")
                assert revised.status == dense.status == "optimal"
                for v in dense.values:
                    assert abs(revised.values[v] - dense.values[v]) \
                        <= RATE_TOL
        # The pure max-min ladder (fix=False) probes a flow.
        assert registry.counters["lp.maxmin.batch_probes"].value >= 1
        assert "lp.maxmin.session_fallbacks" not in registry.counters


class TestSessionProbes:
    """On the session a round's probes each continue from the previous
    probe's basis: every peak equals one cold solve per target."""

    _region = staticmethod(TestBatchedProbes._region)

    @staticmethod
    def _at_level_zero(lp):
        session = open_session(lp)
        assert session.solve_base().is_optimal
        session.pin(False)
        return session

    def test_probes_equal_per_probe_loop(self):
        lp = self._region()
        with using_registry() as registry:
            peaks = self._at_level_zero(lp).probe(0.0, ["x", "y", "z"])
        assert registry.counters["lp.solves"].value == 1 + 3
        for target, peak in peaks.items():
            probe = lp.clone()
            probe.objective = {target: 1.0}
            sol = solve_revised(probe)
            assert sol.is_optimal and peak is not None
            assert abs(peak - sol.values[target]) <= RATE_TOL

    def test_unbounded_session_probe_returns_none(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("free")
        lp.add_constraint({"x": 1.0}, 1.0)
        out = self._at_level_zero(lp).probe(0.0, ["x", "free"])
        assert out["free"] is None
        assert abs(out["x"] - 1.0) <= RATE_TOL

    def test_phase_1_floors_leave_the_session(self):
        """Floors that overfill a row need phase 1: the session gives
        the call up before any probe, and the cold ladder reports it."""
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.set_lower_bound("x", 5.0)
        lp.add_constraint({"x": 1.0}, 2.0)
        with pytest.raises(SessionFallback):
            open_session(lp).solve_base()
        assert lexicographic_maxmin(lp).status == "infeasible"

    def test_no_session_probe_targets(self):
        assert self._at_level_zero(self._region()).probe(0.0, []) == {}

    def test_session_ladder_matches_dense_loop(self):
        """The ladder run on the session (revised) matches the per-probe
        loop (dense) variable by variable."""
        lp = self._region()
        lp.objective = {"x": 1.0, "y": 1.0, "z": 1.0}
        dense = lexicographic_maxmin(lp, backend="simplex")
        revised = lexicographic_maxmin(lp, backend="revised")
        assert revised.status == dense.status == "optimal"
        for v in dense.values:
            assert abs(revised.values[v] - dense.values[v]) <= RATE_TOL


class TestMaxminSession:
    @staticmethod
    def _three_rounds():
        """Three flows on a chain of cliques: three distinct levels."""
        lp = LinearProgram()
        lp.maximize({"a": 1.0, "b": 1.0, "c": 1.0})
        lp.add_constraint({"a": 1.0, "b": 1.0}, 1.0)
        lp.add_constraint({"b": 1.0, "c": 1.0}, 3.0)
        lp.add_constraint({"c": 1.0}, 2.5)
        return lp

    def test_every_step_keeps_the_point_feasible(self):
        lp = self._three_rounds()
        session = open_session(lp)
        session.solve_base()
        session.pin(True)
        simplex = session._simplex
        assert simplex.worst_violation() == 0.0
        level, values, duals, reduced = session.raise_floor(["a", "b", "c"])
        assert level == pytest.approx(0.5)
        assert len(duals) == len(reduced) == 3
        session.probe(level, ["a", "b"])
        assert simplex.worst_violation() <= 1e-12
        session.freeze(level, [("a", level), ("b", level)])
        assert simplex.worst_violation() <= 1e-12
        assert session.raise_floor(["c"])[0] == pytest.approx(2.5)

    def test_freezes_overfilling_a_clique_within_phase_1_tolerance(self):
        """Rounding in a deep ladder's levels can freeze a full clique a
        few 1e-8 over its capacity; the cold solve's phase 1 accepts up
        to 1e-7 of infeasibility, and so does the session."""
        lp = self._three_rounds()
        for excess, keeps in ((2e-8, True), (1e-6, False)):
            session = open_session(lp)
            session.solve_base()
            session.pin(True)
            level = session.raise_floor(["a", "b", "c"])[0]
            frozen = [("a", level + excess), ("b", level + excess)]
            if keeps:
                session.freeze(level, frozen)
                assert 1e-8 < session._simplex.worst_violation() <= 1e-7
                assert session.raise_floor(["c"])[0] == \
                    pytest.approx(2.5)
            else:
                with pytest.raises(SessionFallback):
                    session.freeze(level, frozen)

    def test_level_is_released_after_probes(self):
        """After a round's probes ``t`` must be free to rise again from
        the level; a ``t`` left pinned stalls every later round there."""
        lp = self._three_rounds()
        session = open_session(lp)
        session.solve_base()
        session.pin(True)
        level = session.raise_floor(["a", "b", "c"])[0]
        session.probe(level, ["a", "b", "c"])
        t = session._t
        assert session._simplex.lo[t] == level
        assert session._simplex.hi[t] == np.inf
        sol = lexicographic_maxmin(lp)
        assert sol.values == pytest.approx({"a": 0.5, "b": 0.5, "c": 2.5})

    def test_one_solve_counted_per_optimization(self):
        lp = self._three_rounds()
        with using_registry() as registry, using_tracer() as tracer:
            lexicographic_maxmin(lp)
        counters = {k: c.value for k, c in registry.counters.items()}
        steps = [r["tags"]["session"] for r in tracer.to_records()
                 if r["name"] == "lp.solve"]
        assert steps[0] == "base" and "round" in steps
        assert counters["lp.solves"] == counters["lp.solves.revised"] \
            == counters["lp.revised.solves"] == len(steps)
        assert counters["lp.revised.pivots"] >= 1
        # The slack basis plus at most one refactorization per step.
        assert 1 <= counters["lp.revised.factorizations"] <= 1 + len(steps)
        assert "lp.maxmin.session_fallbacks" not in counters

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_kernel_inverse_inverts_the_basis(self, name):
        """A fresh tableau solves only the structural kernel of a basis;
        its unit-column block is the basis matrix's inverse, and the
        whole tableau is that inverse times the form's matrix."""
        for lp in group_lps(LIBRARY[name]()):
            session = open_session(lp)
            try:
                session.solve_base()
            except SessionFallback:
                continue
            simplex = session._simplex
            cols, basis = simplex.cols, simplex.basis
            kernel = revised_module._Tableau(cols, basis)
            inverse = kernel.inverse
            assert np.allclose(inverse @ cols.full[:, basis],
                               np.eye(cols.m), atol=1e-12)
            assert np.allclose(kernel.t[:cols.m, :-1],
                               inverse @ cols.full, atol=1e-12)

    def test_session_serves_forms_up_to_the_row_gate(self):
        lp = self._three_rounds()  # 3 rows + pin + 3 floor rows
        with mock.patch.object(revised_module, "SESSION_MAX_ROWS", 7):
            assert open_session(lp) is not None
        with mock.patch.object(revised_module, "SESSION_MAX_ROWS", 6):
            assert open_session(lp) is None
            with using_registry() as registry:
                sol = lexicographic_maxmin(lp)
        assert "lp.maxmin.batch_probes" in registry.counters
        assert sol.values == pytest.approx({"a": 0.5, "b": 0.5, "c": 2.5})

    def test_backends_without_a_session_run_the_cold_ladder(self):
        lp = self._three_rounds()
        with using_registry() as registry:
            lexicographic_maxmin(lp, backend=ResilientLPBackend())
        assert registry.counters["lp.solves"].value >= 3
        assert "lp.revised.factorizations" in registry.counters


class TestResilientChainRevised:
    def test_revised_backend_chain_serves_float(self):
        backend = ResilientLPBackend(backend="revised")
        analysis = ContentionAnalysis(fig6.make_scenario())
        with using_registry() as reg:
            alloc = basic_fairness_lp_allocation(analysis,
                                                 backend=backend)
        ref = basic_fairness_lp_allocation(analysis, backend="revised")
        for fid, rate in ref.shares.items():
            assert abs(alloc.shares[fid] - rate) <= RATE_TOL
        assert backend.served["float"] > 0
        assert backend.served["exact"] == 0
        assert backend.fallbacks == 0
        assert reg.counters["lp.revised.solves"].value > 0
        assert "lp.simplex.solves" not in reg.counters

    def test_forced_demotion_reaches_exact(self, monkeypatch):
        def boom(lp):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("repro.resilience.degrade.solve_revised", boom)
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.add_constraint({"x": 1.0}, 2.0)
        backend = ResilientLPBackend(backend="revised")
        solution = backend(lp)
        assert solution.is_optimal
        assert abs(solution.values["x"] - 2.0) <= RATE_TOL
        assert backend.served == {"float": 0, "exact": 1}
        assert backend.fallbacks == 1  # the float stage demoted once

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ResilientLPBackend(backend="no-such-solver")


class TestSolverFrontend:
    def test_registered_backend_name(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.add_constraint({"x": 1.0}, 1.5)
        with using_registry() as reg:
            sol = solve(lp, "revised")
        assert sol.is_optimal
        assert reg.counters["lp.solves.revised"].value == 1
        assert reg.counters["lp.revised.solves"].value == 1

    def test_same_values_as_dense_cold(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 2.0})
        lp.add_constraint({"x": 1.0, "y": 1.0}, 4.0)
        lp.add_constraint({"y": 1.0}, 3.0)
        lp.set_lower_bound("x", 0.5)
        dense = solve_simplex(lp)
        revised = solve_revised(lp)
        assert revised.values == dense.values  # bitwise, not approx
        assert revised.objective == dense.objective
