"""Differential test of the shape-keyed component memo (``perf/shard.py``).

:class:`~repro.perf.shard.ShardedSolver` keys its memo by a name-free
shape: two components that form the same LP under different flow ids
share one solve, and the cached shares map back by position.  The
contract under test: every share the solver hands out — a memo hit, a
within-call duplicate, or a fresh solve — equals a cold
:func:`~repro.lp.lexicographic_maxmin` of that component's own LP with
``==``, on the scenario library and on seeded random relabelings of it,
including relabelings that reorder the flows' names.
"""

import random

import pytest

from repro.core.contention import ContentionAnalysis
from repro.core.model import Flow, Scenario
from repro.lp import lexicographic_maxmin
from repro.perf.shard import ShardedSolver, component_problems

from tests.test_shard import FEASIBLE, LIBRARY

RELABEL_SEEDS = range(6)


def relabel(scenario, names):
    """``scenario`` with flow ``i`` renamed ``names[i]``; paths, weights,
    flow order, and capacity unchanged."""
    flows = [Flow(new, f.path, f.weight)
             for f, new in zip(scenario.flows, names)]
    return Scenario(scenario.network, flows,
                    name=f"{scenario.name}-relabeled",
                    capacity=scenario.capacity)


def random_names(scenario, seed):
    """Fresh flow ids in a seeded random name order."""
    n = len(scenario.flows)
    ranks = list(range(n))
    random.Random(seed).shuffle(ranks)
    return [f"q{rank:03d}" for rank in ranks]


def cold(problem):
    """One component solved alone, with no memo in the way."""
    sol = lexicographic_maxmin(problem.lp, problem.weights,
                               fix_objective=True, backend=problem.backend)
    return {fid: sol[f"r_{fid}"] for fid in problem.group_ids}


def served(solver, problems):
    """Shares ``solver`` hands out per problem, and how many it served
    without a fresh solve (memo hits plus within-call duplicates)."""
    results = solver.solve_problems(problems)
    return results, solver.last_stats["reused"]


def shape_keys(scenario):
    """Shape key of each of ``scenario``'s components, in order."""
    return [p.fingerprint
            for p in component_problems(ContentionAnalysis(scenario))]


class TestShapeKey:
    def test_name_order_is_part_of_the_shape(self):
        """Names enter a solve only through their sort order (the
        max-min progress guard freezes the smallest free name), so a
        renaming that keeps the order keeps the key and one that swaps
        it does not."""
        scenario = LIBRARY["fig1"]()
        assert scenario.flow_ids == ["1", "2"]
        assert shape_keys(relabel(scenario, ["a", "b"])) == shape_keys(
            scenario)
        assert shape_keys(relabel(scenario, ["b", "a"])) != shape_keys(
            scenario)


class TestShapeHitsMatchColdSolves:
    @pytest.mark.parametrize("name", FEASIBLE)
    def test_library_components(self, name):
        problems = component_problems(ContentionAnalysis(LIBRARY[name]()))
        results, _ = served(ShardedSolver(), problems)
        assert results == [cold(p) for p in problems]

    @pytest.mark.parametrize("name", FEASIBLE)
    def test_order_preserving_relabeling_reuses_every_component(self, name):
        """A prefix keeps every name's rank, so every component of the
        renamed copy is a hit on the original's shapes."""
        scenario = LIBRARY[name]()
        solver = ShardedSolver()
        solver.solve(ContentionAnalysis(scenario))
        copy = relabel(scenario, [f"x{fid}" for fid in scenario.flow_ids])
        problems = component_problems(ContentionAnalysis(copy))
        results, reused = served(solver, problems)
        assert solver.last_stats["dirty"] == 0
        assert reused == len(problems)
        assert results == [cold(p) for p in problems]

    @pytest.mark.parametrize("name", FEASIBLE)
    @pytest.mark.parametrize("seed", RELABEL_SEEDS)
    def test_random_relabeling_through_a_primed_solver(self, name, seed):
        scenario = LIBRARY[name]()
        solver = ShardedSolver()
        solver.solve(ContentionAnalysis(scenario))
        copy = relabel(scenario, random_names(scenario, seed))
        problems = component_problems(ContentionAnalysis(copy))
        results, _ = served(solver, problems)
        assert results == [cold(p) for p in problems]

    def test_random_relabelings_reorder_names_and_still_hit(self):
        """The seeded relabelings are not vacuous: some reorder the
        names inside a multi-flow component, and some of the renamed
        components are served without a fresh solve."""
        reordered = reused = 0
        for name in FEASIBLE:
            scenario = LIBRARY[name]()
            for seed in RELABEL_SEEDS:
                names = random_names(scenario, seed)
                old = scenario.flow_ids
                reordered += len(old) > 1 and (
                    sorted(range(len(old)), key=old.__getitem__)
                    != sorted(range(len(old)), key=names.__getitem__)
                )
                solver = ShardedSolver()
                solver.solve(ContentionAnalysis(scenario))
                copy = relabel(scenario, names)
                _, hits = served(solver, component_problems(
                    ContentionAnalysis(copy)))
                reused += hits
        assert reordered > 0
        assert reused > 0
