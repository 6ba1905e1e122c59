"""Tests for the batch engine's persistent per-component store.

:class:`~repro.perf.shard.BatchAllocationEngine` keeps one store entry per
*universe* contention component and rebuilds only the entries that
``register`` / ``release`` dirtied.  The contract under test:

* after every epoch, ``allocate()`` equals a cold monolithic
  :func:`~repro.core.allocation.basic_fairness_lp_allocation` of
  ``active_analysis()`` bitwise, key order included — while active
  components split and merge under seeded open-loop churn;
* every ``register`` verdict equals the reference batch-then-greedy
  algorithm run over the *whole* trial subgraph (the engine probes only
  the universe components its candidates touch);
* the solver's stats describe the whole active set on every epoch, and
  ``release`` counts only the flows it actually retires;
* an epoch costs what changed: an unchanged epoch runs no analysis, and
  churn in one island analyzes that island alone.
"""

from collections import Counter
from typing import Dict, List, Sequence, Set

import numpy as np
import pytest

from repro import obs
from repro.core.allocation import basic_fairness_lp_allocation
from repro.core.contention import (
    ContentionAnalysis,
    contention_graph_from_pairs,
)
from repro.core.model import Flow, Network, Scenario, Subflow, SubflowId
from repro.graphs import connected_components
from repro.obs.registry import MetricsRegistry
from repro.perf.shard import BatchAllocationEngine
from repro.resilience.admission import (
    ADMIT,
    REASON_FLOOR,
    basic_share_feasible,
)
from repro.scenarios.random_topology import make_random_scenario
from repro.traffic import OpenLoopConfig, draw_arrival_trace

from tests.test_lp_revised import LIBRARY


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


# ----------------------------------------------------------------------
# Universes
# ----------------------------------------------------------------------
def star_islands(sizes: Sequence[int]) -> ContentionAnalysis:
    """Hub-and-spoke islands of one-hop flows, one clique per island,
    graph and cliques precomputed as large synthetic universes do."""
    nodes: List[str] = []
    links = []
    flows: List[Flow] = []
    subflows: List[Subflow] = []
    pairs = []
    cliques = []
    for i, leaves in enumerate(sizes):
        hub = f"h{i}"
        nodes.append(hub)
        island: List[SubflowId] = []
        for j in range(leaves):
            leaf, fid = f"n{i}_{j}", f"f{i}_{j}"
            nodes.append(leaf)
            links.append((hub, leaf))
            flows.append(Flow(fid, (hub, leaf), 1.0 + (i + j) % 3))
            sid = SubflowId(fid, 1)
            subflows.append(Subflow(sid, hub, leaf, 1.0))
            pairs += [(other, sid) for other in island]
            island.append(sid)
        cliques.append(frozenset(island))
    scenario = Scenario(Network.from_links(nodes, links), flows,
                        name="star-islands")
    graph = contention_graph_from_pairs(subflows, pairs)
    return ContentionAnalysis(scenario, graph=graph, cliques=cliques)


def shortcut_batch() -> ContentionAnalysis:
    """A shortcut link puts all 4 subflows of L (and of K, its reverse)
    in one clique, above their virtual length 3: L or K alone has an
    infeasible basic floor, and only flows outside that clique (U, V)
    can carry one of them.  Batches holding L or K fail their probe and
    fall back to greedy FIFO, whose verdicts depend on the active
    flows."""
    nodes = ["a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2"]
    links = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
             ("a0", "a4"), ("a4", "b0"), ("b0", "b1"), ("b1", "b2")]
    flows = [
        Flow("L", tuple(nodes[:5]), 1.0),
        Flow("K", tuple(reversed(nodes[:5])), 1.0),
        Flow("S", ("a0", "a1"), 1.0),
        Flow("U", ("a4", "b0"), 1.0),
        Flow("V", ("b1", "b2"), 1.0),
    ]
    return ContentionAnalysis(
        Scenario(Network.from_links(nodes, links), flows, name="shortcut")
    )


def library(name: str):
    return lambda: ContentionAnalysis(LIBRARY[name]())


UNIVERSES = {
    "star-islands": lambda: star_islands([4, 3, 5, 2, 4, 1, 3]),
    "parallel_chains": library("parallel_chains"),
    "grid": library("grid"),
    "fig4": library("fig4"),
    "fig6": library("fig6"),
    "shortcut": shortcut_batch,
    "random-multihop": lambda: ContentionAnalysis(make_random_scenario(
        num_nodes=40, num_flows=14, seed=3, min_hops=2, max_hops=4,
    )),
}

#: Universes whose active components must be seen to split and merge.
MULTI_HOP = ("fig6", "random-multihop")


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def reference_admits(
    universe: ContentionAnalysis, active: Set[str], offered: Sequence[str]
) -> Dict[str, bool]:
    """Batch-then-greedy admission over the whole trial subgraph.

    Candidates are the offered ids not yet active, deduplicated in
    request order; they are grouped by connected component of the
    active-plus-candidates subgraph of the *universe* graph, each
    component's batch is probed in one Eq. (6) check, and a failing
    component is admitted greedily in FIFO order.
    """
    flows = {f.flow_id: f for f in universe.scenario.flows}
    scenario = universe.scenario

    def sids(ids):
        return {s.sid for fid in ids for s in flows[fid].subflows}

    def feasible(ids: List[str]) -> bool:
        trial = Scenario(scenario.network, [flows[f] for f in ids],
                         capacity=scenario.capacity)
        cold = ContentionAnalysis(
            trial, graph=universe.graph.subgraph(sids(ids))
        )
        return basic_share_feasible(cold.cliques, trial.flows,
                                    scenario.capacity)

    candidates = list(dict.fromkeys(f for f in offered if f not in active))
    graph = universe.graph.subgraph(sids(active | set(candidates)))
    comp_of = {}
    for idx, comp in enumerate(connected_components(graph)):
        for sid in comp:
            comp_of[sid.flow] = idx
    by_comp: Dict[int, List[str]] = {}
    for fid in candidates:
        by_comp.setdefault(comp_of[fid], []).append(fid)
    admits: Dict[str, bool] = {}
    for idx, batch in by_comp.items():
        here = [f for f in flows if f in active and comp_of.get(f) == idx]
        if feasible(here + batch):
            admits.update((fid, True) for fid in batch)
            continue
        for fid in batch:
            admits[fid] = feasible(here + [fid])
            if admits[fid]:
                here.append(fid)
    return admits


def cold_shares(engine: BatchAllocationEngine) -> Dict[str, float]:
    return basic_fairness_lp_allocation(engine.active_analysis()).shares


def most_parts(universe: ContentionAnalysis, analysis) -> int:
    """Most active components any one universe component splits into."""
    entry = {
        sid.flow: idx
        for idx, comp in enumerate(connected_components(universe.graph))
        for sid in comp
    }
    parts = Counter(entry[group[0].flow_id] for group in analysis.groups)
    return max(parts.values(), default=0)


# ----------------------------------------------------------------------
# Differential
# ----------------------------------------------------------------------
class TestStoreDifferential:
    @pytest.mark.parametrize("name", sorted(UNIVERSES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_churn_matches_cold_solve_and_reference_admission(
        self, name, seed
    ):
        universe = UNIVERSES[name]()
        ids = [f.flow_id for f in universe.scenario.flows]
        rate = max(1.0, len(ids) / 4)
        trace = draw_arrival_trace(
            np.random.default_rng(seed), ids, 40,
            OpenLoopConfig(rate=rate, duration_mean=3.0),
        )
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine = BatchAllocationEngine(universe)
        until: Dict[str, int] = {}
        split = 0
        rejected = failed = 0
        for epoch in range(trace.epochs):
            due = sorted(f for f, u in until.items() if u <= epoch)
            engine.release(due)
            for fid in due:
                del until[fid]
            arrivals = trace.arrivals_at(epoch)
            offered = [a.flow for a in arrivals]
            expected = reference_admits(universe, set(engine.active), offered)
            decisions = engine.register(offered)
            assert {d.flow_id: d.action == ADMIT
                    for d in decisions} == expected, f"epoch {epoch}"
            durations = {a.flow: a.duration for a in arrivals}
            for d in decisions:
                if d.action == ADMIT:
                    until[d.flow_id] = epoch + durations[d.flow_id]
                else:
                    assert d.reason == REASON_FLOOR
                    rejected += 1

            analysis = engine.active_analysis()
            try:
                reference = basic_fairness_lp_allocation(analysis).shares
            except RuntimeError:
                # A departure left an admitted flow's floor infeasible
                # (the shortcut's L after its group shrank): the engine
                # fails exactly where the cold solve does.
                with pytest.raises(RuntimeError, match="basic-fairness LP"):
                    engine.allocate()
                failed += 1
                continue
            rates = engine.allocate()
            assert list(rates.items()) == list(reference.items()), (
                f"epoch {epoch}"
            )
            stats = engine.solver.last_stats
            assert stats["components"] == len(analysis.groups)
            assert stats["dirty"] + stats["reused"] == len(analysis.groups)
            split = max(split, most_parts(universe, analysis))
        counters = registry.snapshot()["counters"]
        assert counters["batch.epochs"] == trace.epochs - failed
        if name != "shortcut":
            assert failed == 0
        if name in MULTI_HOP:
            # Some universe component split into several active ones.
            assert split >= 2
        if name == "shortcut":
            assert counters["batch.register.greedy_fallbacks"] >= 1
            assert rejected >= 1

    def test_greedy_fallback_counts_the_active_flows(self):
        """With U active, L fits and K then does not; greedy checks each
        candidate together with the component's active flows."""
        universe = shortcut_batch()
        engine = BatchAllocationEngine(universe)
        engine.register(["U"])
        engine.allocate()
        expected = reference_admits(universe, {"U"}, ["L", "K", "S"])
        assert expected == {"L": True, "K": False, "S": True}
        decisions = engine.register(["L", "K", "S"])
        assert {d.flow_id: d.action == ADMIT for d in decisions} == expected
        assert list(engine.allocate().items()) == list(
            cold_shares(engine).items())

    def test_parts_follow_universe_order_across_islands(self):
        """Active components of interleaved universe components merge
        in first-vertex order, exactly as a cold analysis lists them."""
        universe = star_islands([3, 3, 3, 3])
        engine = BatchAllocationEngine(universe)
        engine.register(["f3_0", "f1_2", "f0_1", "f2_0"])
        rates = engine.allocate()
        assert list(rates) == ["f0_1", "f1_2", "f2_0", "f3_0"]
        engine.release(["f1_2"])
        engine.register(["f1_0", "f0_0"])
        rates = engine.allocate()
        assert list(rates.items()) == list(cold_shares(engine).items())


# ----------------------------------------------------------------------
# Stats, accounting, cost
# ----------------------------------------------------------------------
def counters_of(registry: MetricsRegistry) -> Dict[str, float]:
    return registry.snapshot()["counters"]


class TestStatsEveryEpoch:
    def test_empty_active_epoch_sets_zero_stats(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine = BatchAllocationEngine(star_islands([2, 2]))
        engine.register(["f0_0", "f1_0"])
        engine.allocate()
        assert engine.solver.last_stats["components"] == 2
        engine.release(["f0_0", "f1_0"])
        assert engine.allocate() == {}
        stats = engine.solver.last_stats
        assert (stats["components"], stats["dirty"], stats["reused"]) == (
            0, 0, 0)
        counters = counters_of(registry)
        assert counters["runtime.shard.components"] == 2
        assert counters["runtime.shard.dirty"] == 2

    def test_fresh_engine_epoch_sets_stats(self):
        engine = BatchAllocationEngine(star_islands([2]))
        assert engine.allocate() == {}
        assert engine.solver.last_stats["components"] == 0

    def test_nothing_dirty_epoch_reuses_every_component(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine = BatchAllocationEngine(star_islands([2, 3, 1]))
        engine.register(["f0_0", "f1_1", "f2_0", "f1_2"])
        first = engine.allocate()
        assert engine.solver.last_stats["dirty"] == 3
        again = engine.allocate()
        assert list(again.items()) == list(first.items())
        stats = engine.solver.last_stats
        assert (stats["components"], stats["dirty"], stats["reused"]) == (
            3, 0, 3)
        counters = counters_of(registry)
        assert counters["runtime.shard.components"] == 6
        assert counters["runtime.shard.reused"] == 3

    def test_memo_hit_counts_as_reused(self):
        """An island that leaves and returns unchanged is a memo hit:
        a component, but not a dirty one."""
        engine = BatchAllocationEngine(star_islands([2, 2]))
        engine.register(["f0_0", "f0_1", "f1_0"])
        engine.allocate()
        engine.release(["f0_0", "f0_1"])
        engine.allocate()
        engine.register(["f0_0", "f0_1"])
        engine.allocate()
        stats = engine.solver.last_stats
        assert (stats["components"], stats["dirty"], stats["reused"]) == (
            2, 0, 2)


class TestReleaseAccounting:
    def test_generator_counts_retired_flows(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine = BatchAllocationEngine(star_islands([2]))
        engine.register(["f0_0", "f0_1"])
        engine.allocate()
        engine.release(fid for fid in ["f0_0", "f0_1"])
        assert engine.active == set()
        assert counters_of(registry)["batch.release.flows"] == 2

    def test_unknown_and_inactive_ids_are_not_counted(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine = BatchAllocationEngine(star_islands([2]))
        engine.register(["f0_0", "f0_1"])
        engine.release(["f0_1"])
        engine.release(["nope", "f0_1"])
        assert engine.active == {"f0_0"}
        assert counters_of(registry)["batch.release.flows"] == 1


class TestCostFollowsChange:
    def test_unchanged_epoch_runs_no_analysis(self):
        engine = BatchAllocationEngine(star_islands([3, 3, 3]))
        engine.register(["f0_0", "f1_0", "f2_0"])
        engine.allocate()
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine.allocate()
        counters = counters_of(registry)
        assert "contention.analyses" not in counters
        assert "perf.shard.splits" not in counters

    def test_churn_analyzes_only_the_dirty_island(self):
        engine = BatchAllocationEngine(star_islands([3, 3, 3]))
        engine.register(["f0_0", "f0_1", "f1_0", "f2_0", "f2_1"])
        engine.allocate()
        registry = MetricsRegistry()
        obs.set_registry(registry)
        engine.register(["f1_1"])  # probes island 1 alone
        engine.allocate()  # rebuilds island 1 alone
        counters = counters_of(registry)
        assert counters["contention.analyses"] == 1
        assert counters["contention.subflow_vertices"] == 2
        assert engine.solver.last_stats["dirty"] == 1
        assert engine.solver.last_stats["reused"] == 2

    def test_first_epoch_is_one_solver_call(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        universe = star_islands([2] * 10)
        engine = BatchAllocationEngine(universe)
        engine.register([f.flow_id for f in universe.scenario.flows])
        engine.allocate()
        hist = registry.snapshot()["histograms"]
        assert hist["runtime.shard.parallel_ms"]["count"] == 1
        # Ten islands, three weight patterns: one solve per shape.
        assert engine.solver.last_stats == {
            "components": 10, "dirty": 3, "reused": 7,
        }
