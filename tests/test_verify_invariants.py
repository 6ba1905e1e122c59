"""Paper-invariant checkers (Secs. II–III) on known-good allocations."""

import pytest

from repro.core import (
    ContentionAnalysis,
    basic_allocation,
    basic_fairness_lp_allocation,
)
from repro.core.contention import restricted_analysis
from repro.scenarios import fig1, fig2, fig6
from repro.verify import (
    CheckResult,
    assert_all,
    check_basic_fairness,
    check_clique_capacity,
    check_fairness_constraint,
    check_prop1_bound,
    check_virtual_length_consistency,
)


@pytest.fixture(params=["fig1", "fig6", "fig2"])
def analysis(request):
    make = {
        "fig1": fig1.make_scenario,
        "fig6": fig6.make_scenario,
        "fig2": fig2.make_multi_hop_scenario,
    }[request.param]
    return ContentionAnalysis(make())


class TestKnownGoodAllocations:
    def test_basic_allocation_satisfies_everything(self, analysis):
        shares = basic_allocation(analysis).shares
        assert_all([
            check_clique_capacity(analysis, shares),
            check_basic_fairness(analysis, shares),
            check_fairness_constraint(analysis, shares),
            check_prop1_bound(analysis, shares),
            check_virtual_length_consistency(analysis.scenario, analysis),
        ])

    def test_lp_allocation_fits_cliques_and_basic_floor(self, analysis):
        shares = basic_fairness_lp_allocation(analysis).shares
        assert_all([
            check_clique_capacity(analysis, shares, tol=1e-7),
            check_basic_fairness(analysis, shares),
        ])


class TestViolationsAreCaught:
    def test_overloaded_clique(self):
        analysis = ContentionAnalysis(fig1.make_scenario())
        shares = basic_allocation(analysis).shares
        b = analysis.scenario.capacity
        bad = {fid: s + b for fid, s in shares.items()}
        result = check_clique_capacity(analysis, bad)
        assert not result
        assert result.violations

    def test_starved_flow(self):
        analysis = ContentionAnalysis(fig1.make_scenario())
        shares = dict(basic_allocation(analysis).shares)
        victim = min(shares)
        shares[victim] = 0.0
        result = check_basic_fairness(analysis, shares)
        assert not result
        assert victim in result.violations[0]

    def test_unfair_group(self):
        analysis = ContentionAnalysis(fig1.make_scenario())
        shares = dict(basic_allocation(analysis).shares)
        favored = min(shares)
        shares[favored] *= 2.0
        result = check_fairness_constraint(analysis, shares)
        assert not result

    def test_prop1_overshoot(self):
        analysis = ContentionAnalysis(fig1.make_scenario())
        b = analysis.scenario.capacity
        # Everyone at full channel capacity dwarfs (Σw)B/ω.
        bad = {f.flow_id: b for f in analysis.scenario.flows}
        result = check_prop1_bound(analysis, bad)
        assert not result

    def test_assert_all_raises_with_context(self):
        analysis = ContentionAnalysis(fig1.make_scenario())
        bad = {f.flow_id: 10.0 for f in analysis.scenario.flows}
        with pytest.raises(AssertionError) as exc:
            assert_all([
                check_clique_capacity(analysis, bad),
                check_fairness_constraint(analysis, bad),
            ])
        assert "clique_capacity" in str(exc.value)

    def test_checkresult_truthiness(self):
        assert CheckResult("x", True)
        assert not CheckResult("x", False, "boom")


class TestVirtualLength:
    def test_paper_scenarios_consistent(self, analysis):
        result = check_virtual_length_consistency(
            analysis.scenario, analysis
        )
        assert result, result.violations

    def test_long_flow_capped_at_three(self):
        scenario = fig2.make_multi_hop_scenario()
        for flow in scenario.flows:
            assert flow.virtual_length == min(flow.length, 3)


def clique_capacity_by_cliques(analysis, shares, tol=1e-9):
    """The capacity check as it read before it walked ``clique_terms``:
    members named off the analysis' clique subflow sets."""
    b = analysis.scenario.capacity
    violations = []
    for k, (clique, coeffs) in enumerate(zip(analysis.cliques,
                                             analysis.all_coefficients())):
        load = sum(n * shares.get(fid, 0.0) for fid, n in coeffs.items())
        if load > b + tol:
            members = "+".join(sorted(str(s) for s in clique))
            violations.append(
                f"clique {k} ({members}): load {load:.9g} > B={b:g}")
    return CheckResult(
        "clique_capacity", not violations,
        f"{len(violations)}/{len(analysis.cliques)} cliques overloaded"
        if violations else "", violations)


class TestCliqueCapacityReadsTerms:
    @pytest.mark.parametrize("make", [fig1.make_scenario, fig6.make_scenario])
    def test_restricted_analysis_builds_no_cliques(self, make):
        """The check names an overloaded clique from its term's label:
        a restricted analysis' subflow cliques stay unbuilt, and the
        result is the one naming them off the cliques gave."""
        universe = ContentionAnalysis(make())
        flows = universe.scenario.flows[1:]
        analysis = restricted_analysis(universe, flows, "restricted")
        b = analysis.scenario.capacity
        shares = {f.flow_id: 0.6 * b for f in flows}
        shares[flows[0].flow_id] = 2.0 * b
        result = check_clique_capacity(analysis, shares)
        assert "cliques" not in analysis.__dict__
        assert not result and result.violations
        assert result == clique_capacity_by_cliques(analysis, shares)
        assert "cliques" in analysis.__dict__
