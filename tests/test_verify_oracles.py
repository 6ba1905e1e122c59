"""Differential oracles: brute-force cliques, exact LP, 2PA-D vs 2PA-C."""

import itertools

import pytest

from repro.core import ContentionAnalysis, run_centralized
from repro.core.allocation import build_basic_fairness_lp
from repro.graphs import Graph, maximal_cliques
from repro.lp import LinearProgram, solve
from repro.scenarios import fig1, fig6, make_random_scenario
from repro.scenarios import cross as scenarios_cross
from repro.verify import (
    BruteForceLimit,
    brute_force_maximal_cliques,
    check_2pad_against_centralized,
    cliques_agree,
    lp_objective_matches,
    maxmin_certificate_mismatches,
    solve_exact,
)


def all_graphs(n):
    """Every labelled simple graph on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        g = Graph()
        for v in range(n):
            g.add_vertex(v)
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                g.add_edge(u, v)
        yield g


class TestBruteForceCliques:
    def test_empty_graph(self):
        assert brute_force_maximal_cliques(Graph()) == []

    def test_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert brute_force_maximal_cliques(g) == [frozenset({0, 1, 2})]

    def test_isolated_vertices_are_singleton_cliques(self):
        g = Graph.from_edges([], vertices=["a", "b"])
        assert brute_force_maximal_cliques(g) == [
            frozenset({"a"}), frozenset({"b"})
        ]

    def test_exhaustive_agreement_up_to_4_vertices(self):
        for n in range(5):
            for g in all_graphs(n):
                assert maximal_cliques(g) == brute_force_maximal_cliques(g)

    def test_limit_raises(self):
        g = Graph()
        for v in range(20):
            g.add_vertex(v)
        with pytest.raises(BruteForceLimit):
            brute_force_maximal_cliques(g, max_vertices=14)

    def test_agrees_on_paper_contention_graphs(self):
        for make in (fig1.make_scenario, fig6.make_scenario):
            analysis = ContentionAnalysis(make())
            assert cliques_agree(analysis.graph)


class TestLpOracle:
    def test_agreement_on_paper_lps(self):
        for make in (fig1.make_scenario, fig6.make_scenario):
            analysis = ContentionAnalysis(make())
            for group in analysis.groups:
                lp = build_basic_fairness_lp(analysis, group, 1.0)
                report = lp_objective_matches(lp, with_scipy=True)
                assert report["ok"], report

    def test_detects_wrong_objective(self):
        """A deliberately broken backend-style mismatch is flagged."""
        lp = LinearProgram()
        lp.add_variable("x", 1.0)
        lp.add_constraint({"x": 1.0}, 2.0)
        report = lp_objective_matches(lp)
        assert report["ok"]
        assert report["exact_objective"] == pytest.approx(2.0)

    def test_status_mismatch_flagged(self):
        # An LP only the exact side sees as unbounded cannot easily be
        # constructed without breaking a solver, so check the report
        # structure on agreeing infeasible instances instead.
        lp = LinearProgram()
        lp.add_variable("x", 1.0)
        lp.add_constraint({"x": 1.0}, 1.0)
        lp.set_lower_bound("x", 3.0)
        report = lp_objective_matches(lp)
        assert report["ok"]
        assert report["simplex_status"] == "infeasible"
        assert report["exact_status"] == "infeasible"

    def test_borderline_one_ulp_infeasibility_is_agreement(self):
        """Float data can overfill a constraint by one ulp: not a bug.

        Ten equal lower bounds of float 0.1 (which rounds *up* from
        1/10) sum to just over 1 in exact rationals, so the exact solver
        calls the LP infeasible while the float solver (correctly,
        within tolerance) solves it.
        """
        from fractions import Fraction

        lp = LinearProgram()
        for i in range(10):
            lp.add_variable(f"x{i}", 1.0)
            lp.set_lower_bound(f"x{i}", 0.1)
        lp.add_constraint({f"x{i}": 1.0 for i in range(10)}, 1.0)
        assert Fraction(0.1) * 10 > 1  # the ulp artifact itself
        assert solve_exact(lp).status == "infeasible"
        assert solve(lp, "simplex").status == "optimal"
        report = lp_objective_matches(lp)
        assert report["ok"]
        assert report.get("borderline") is True


class TestMaxminCertificateOracle:
    @staticmethod
    def _fig6_ladders():
        analysis = ContentionAnalysis(fig6.make_scenario())
        for group in analysis.groups:
            weights = {f"r_{f.flow_id}": f.weight for f in group}
            yield build_basic_fairness_lp(analysis, group, 1.0), weights

    @pytest.mark.parametrize("backend", ["simplex", "revised"])
    def test_certificate_agrees_with_probes_on_paper_lps(self, backend):
        for lp, weights in self._fig6_ladders():
            assert maxmin_certificate_mismatches(lp, weights, backend) == []

    def test_wrong_certificate_is_caught(self, monkeypatch):
        """Marking every free flow certified saturated freezes Fig. 6's
        flows all in the first round; the probes say otherwise."""
        from repro.lp import maxmin

        monkeypatch.setattr(maxmin, "_certified",
                            lambda aux, sol, free, *rest: set(free))
        found = [
            line
            for lp, weights in self._fig6_ladders()
            for line in maxmin_certificate_mismatches(lp, weights)
        ]
        assert any("certified saturated, but its probe" in line
                   for line in found), found
        assert any("with the certificate !=" in line
                   for line in found), found


class TestTwoPaOracle:
    def test_cross_fully_informed_and_equal(self):
        scenario = scenarios_cross()
        cent = run_centralized(scenario)
        report = check_2pad_against_centralized(scenario, cent.shares)
        assert report["ok"], report
        assert report["fully_informed_groups"] == report["groups"] == 1

    def test_paper_figures_partial_views_still_sound(self):
        """Figs. 1 and 6 have sources that cannot see their whole group:
        equivalence is not demanded there, but the gossip fixpoint and
        constraint completeness must still hold."""
        for make in (fig1.make_scenario, fig6.make_scenario):
            scenario = make()
            cent = run_centralized(scenario)
            report = check_2pad_against_centralized(scenario, cent.shares)
            assert report["ok"], report
            assert report["gossip_fixpoint"]
            assert report["constraint_completeness"]
            assert report["fully_informed_groups"] == 0

    def test_random_scenarios(self):
        for seed in range(4):
            scenario = make_random_scenario(
                num_nodes=10, num_flows=3, seed=seed
            )
            cent = run_centralized(scenario)
            report = check_2pad_against_centralized(scenario, cent.shares)
            assert report["ok"], (seed, report)

    def test_detects_tampered_shares_in_fully_informed_group(self):
        scenario = scenarios_cross()
        cent = run_centralized(scenario)
        wrong = {fid: s + 0.25 for fid, s in cent.shares.items()}
        report = check_2pad_against_centralized(scenario, wrong)
        assert not report["ok"]
        assert not report["conditional_equivalence"]
        assert report["mismatches"]
