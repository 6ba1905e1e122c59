"""Warm-started simplex: exact equality with cold solves on the dynamic
experiment's re-solve sequence, and clean fallback whenever a stored
basis does not fit the new problem."""

import pytest

from repro.core.allocation import basic_fairness_lp_allocation
from repro.core.contention import ContentionAnalysis, subflow_contention_graph
from repro.core.model import Scenario
from repro.graphs.cliques import maximal_cliques
from repro.lp.problem import LinearProgram
from repro.lp.simplex import solve_simplex
from repro.lp.solvers import solve
from repro.obs.registry import using_registry
from repro.perf.warm import WarmLPCache, lp_structure_signature
from repro.scenarios import make_random_scenario
from repro.scenarios.random_topology import (
    random_connected_network,
    random_flows,
)


def sample_lp(cap=4.0, ycap=3.0):
    lp = LinearProgram()
    lp.maximize({"x": 1.0, "y": 2.0})
    lp.add_constraint({"x": 1.0, "y": 1.0}, cap)
    lp.add_constraint({"y": 1.0}, ycap)
    lp.set_lower_bound("x", 0.5)
    return lp


def churn_scenario(seed=3):
    net = random_connected_network(20, seed=seed)
    flows = random_flows(net, 6, seed=seed + 1)
    return Scenario(net, flows, name="churn", capacity=1.0)


def churn_sequence(scenario):
    """Active flow-id subsets mimicking the dynamic experiment timeline."""
    ids = scenario.flow_ids
    return [
        ids,
        [i for i in ids if i != ids[2]],
        [i for i in ids if i not in (ids[2], ids[4])],
        [i for i in ids if i != ids[4]],
        ids,
    ]


class TestWarmStartExactness:
    def test_same_lp_warm_equals_cold(self):
        lp = sample_lp()
        cold = solve_simplex(lp)
        warm = solve_simplex(lp, start_basis=cold.basis)
        assert warm.status == cold.status == "optimal"
        assert warm.values == cold.values
        assert warm.objective == cold.objective
        assert warm.basis == cold.basis

    def test_perturbed_bounds_warm_equals_cold(self):
        base = solve_simplex(sample_lp())
        for cap, ycap in [(5.0, 2.5), (3.0, 3.0), (4.0, 0.8), (10.0, 9.0)]:
            lp = sample_lp(cap, ycap)
            cold = solve_simplex(lp)
            warm = solve_simplex(lp, start_basis=base.basis)
            assert warm.status == cold.status
            assert warm.values == cold.values
            assert warm.objective == cold.objective

    def test_dynamic_solve_sequence_bit_identical(self):
        """The acceptance sequence: every churn re-solve, warm == cold."""
        scenario = churn_scenario()
        cache = WarmLPCache()
        for active in churn_sequence(scenario):
            sub = Scenario(
                scenario.network,
                [f for f in scenario.flows if f.flow_id in set(active)],
                name="churn-active", capacity=scenario.capacity,
            )
            analysis = ContentionAnalysis(sub)
            cold = basic_fairness_lp_allocation(analysis)
            warm = basic_fairness_lp_allocation(
                analysis, backend=cache.solver
            )
            assert warm.shares == cold.shares
            assert warm.lp_solution.status == cold.lp_solution.status
        assert cache.hits > 0  # the sequence actually reused bases

    @pytest.mark.parametrize("nodes,flows", [(30, 8), (60, 16)])
    def test_capacity_sweep_warm_equals_cold(self, nodes, flows):
        """Sibling LPs of one contention structure (capacity scaled,
        right-hand sides perturbed): the warm cache replays bases across
        the whole sweep and every allocation is bitwise the cold one."""
        base = make_random_scenario(num_nodes=nodes, num_flows=flows,
                                    seed=3)
        graph = subflow_contention_graph(base.network, base.flows)
        cliques = maximal_cliques(graph)
        analyses = [
            ContentionAnalysis(
                Scenario(base.network, base.flows, name=f"cap-{mult}",
                         capacity=base.capacity * mult),
                graph=graph, cliques=cliques,
            )
            for mult in (1.0, 0.8, 1.25, 0.9, 1.1, 0.75, 1.5)
        ]
        cache = WarmLPCache()
        for analysis in analyses:
            cold = basic_fairness_lp_allocation(analysis)
            warm = basic_fairness_lp_allocation(analysis,
                                                backend=cache.solver)
            assert warm.shares == cold.shares
        assert cache.hits > 0

    def test_infeasible_and_unbounded_statuses_unchanged(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.add_constraint({"x": 1.0}, 1.0)
        good = solve_simplex(lp)

        unbounded = LinearProgram()
        unbounded.maximize({"x": 1.0, "y": 1.0})
        unbounded.add_constraint({"x": 1.0}, 1.0)
        assert solve_simplex(unbounded).status == "unbounded"

        infeasible = LinearProgram()
        infeasible.maximize({"x": 1.0})
        infeasible.add_constraint({"x": -1.0}, -5.0)  # x >= 5
        infeasible.add_constraint({"x": 1.0}, 1.0)    # x <= 1
        cold = solve_simplex(infeasible)
        warm = solve_simplex(infeasible, start_basis=good.basis)
        assert cold.status == warm.status == "infeasible"


class TestWarmStartFallback:
    def test_wrong_length_basis_falls_back(self):
        lp = sample_lp()
        cold = solve_simplex(lp)
        with using_registry() as reg:
            warm = solve_simplex(lp, start_basis=(("v", 0),))
        assert warm.values == cold.values
        assert reg.counters["perf.lp.warm.fallbacks"].value == 1

    def test_unknown_label_falls_back(self):
        lp = sample_lp()
        cold = solve_simplex(lp)
        bogus = (("v", 17), ("s", 0))
        warm = solve_simplex(lp, start_basis=bogus)
        assert warm.values == cold.values

    def test_duplicate_labels_fall_back(self):
        lp = sample_lp()
        cold = solve_simplex(lp)
        warm = solve_simplex(lp, start_basis=(("v", 0), ("v", 0)))
        assert warm.values == cold.values

    def test_installed_counter_on_success(self):
        lp = sample_lp()
        cold = solve_simplex(lp)
        with using_registry() as reg:
            solve_simplex(lp, start_basis=cold.basis)
        assert reg.counters["perf.lp.warm.attempts"].value == 1
        assert reg.counters["perf.lp.warm.installed"].value == 1
        assert "perf.lp.warm.fallbacks" not in reg.counters


class TestWarmLPCache:
    def test_structure_signature_groups_siblings(self):
        a = sample_lp(4.0, 3.0)
        b = sample_lp(9.0, 1.0)  # same structure, different numbers
        assert lp_structure_signature(a) == lp_structure_signature(b)
        c = sample_lp()
        c.add_constraint({"x": 1.0}, 2.0)
        assert lp_structure_signature(a) != lp_structure_signature(c)

    def test_cache_hits_and_lru_bound(self):
        cache = WarmLPCache(max_entries=1)
        cache.solver(sample_lp())
        cache.solver(sample_lp(5.0, 2.0))
        assert (cache.hits, cache.misses) == (1, 1)
        other = LinearProgram()
        other.maximize({"z": 1.0})
        other.add_constraint({"z": 1.0}, 1.0)
        cache.solver(other)          # evicts the sibling entry
        assert len(cache) == 1
        cache.solver(sample_lp())
        assert cache.misses == 3

    def test_callable_backend_threads_through_solve(self):
        cache = WarmLPCache()
        lp = sample_lp()
        with using_registry() as reg:
            sol = solve(lp, backend=cache.solver)
        assert sol.is_optimal
        assert reg.counters["lp.solves.solver"].value == 1

    def test_unknown_string_backend_still_raises(self):
        with pytest.raises(ValueError):
            solve(sample_lp(), backend="no-such-backend")
