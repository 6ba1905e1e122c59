"""IncrementalContention vs cold rebuilds: bit-identical analyses and
allocations across flow churn, no clique enumeration after the universe
is built, plus the dynamic experiment fast path."""

import pytest

import repro.core.contention
import repro.core.distributed
import repro.graphs
import repro.graphs.cliques
import repro.graphs.independent
import repro.perf.cliques
import repro.verify.oracles
from repro.core.allocation import basic_fairness_lp_allocation
from repro.core.contention import ContentionAnalysis
from repro.core.distributed import DistributedAllocator
from repro.core.model import Scenario
from repro.experiments import DynamicAllocationExperiment, FlowSchedule
from repro.perf.incremental import IncrementalContention
from repro.perf.shard import BatchAllocationEngine, ShardedSolver
from repro.resilience.admission import ADMIT, REASON_FLOOR, REJECT
from repro.resilience.runtime import AllocatorRuntime, RuntimeConfig
from repro.scenarios import fig1, fig3, make_random_scenario
from repro.verify.oracles import cold_journal_mismatches
from repro.scenarios.random_topology import (
    random_connected_network,
    random_flows,
)

#: Every name a clique enumeration can be reached through.
ENUMERATION_SITES = (
    (repro.graphs, "maximal_cliques"),
    (repro.graphs.cliques, "maximal_cliques"),
    (repro.graphs.cliques, "maximal_cliques_set"),
    (repro.graphs.independent, "maximal_cliques"),
    (repro.perf.cliques, "maximal_cliques_bitset"),
    (repro.core.contention, "maximal_cliques"),
    (repro.core.distributed, "maximal_cliques"),
    (repro.verify.oracles, "maximal_cliques"),
)


@pytest.fixture
def forbid_enumeration(monkeypatch):
    """Call the returned function to make any clique enumeration raise."""
    def enumerated(*_args, **_kwargs):
        raise AssertionError("Bron-Kerbosch ran after the universe build")

    def arm():
        for module, name in ENUMERATION_SITES:
            monkeypatch.setattr(module, name, enumerated)

    return arm


@pytest.fixture(scope="module")
def scenario():
    net = random_connected_network(20, seed=3)
    flows = random_flows(net, 6, seed=4)
    return Scenario(net, flows, name="churn", capacity=1.0)


def cold_analysis(scenario, active_ids):
    active = set(active_ids)
    sub = Scenario(
        scenario.network,
        [f for f in scenario.flows if f.flow_id in active],
        name=f"{scenario.name}-active",
        capacity=scenario.capacity,
    )
    return ContentionAnalysis(sub)


def assert_same_analysis(cold, fast):
    assert cold.cliques == fast.cliques
    assert cold.graph.vertices() == fast.graph.vertices()
    assert sorted(map(repr, cold.graph.edges())) == \
        sorted(map(repr, fast.graph.edges()))
    assert [[f.flow_id for f in g] for g in cold.groups] == \
        [[f.flow_id for f in g] for g in fast.groups]
    assert cold.scenario.flow_ids == fast.scenario.flow_ids


class TestChurnEquality:
    def test_analysis_matches_cold_across_churn(self, scenario):
        ids = scenario.flow_ids
        sequence = [
            ids,
            [i for i in ids if i != ids[2]],
            [i for i in ids if i not in (ids[2], ids[4])],
            [i for i in ids if i != ids[4]],
            [ids[0]],
            ids,
        ]
        inc = IncrementalContention(scenario)
        for active in sequence:
            fast = inc.analysis_for(active)
            assert_same_analysis(cold_analysis(scenario, active), fast)

    def test_allocations_match_cold(self, scenario):
        ids = scenario.flow_ids
        inc = IncrementalContention(scenario)
        for active in (ids, ids[:3], ids[1:]):
            cold = basic_fairness_lp_allocation(
                cold_analysis(scenario, active)
            )
            fast = basic_fairness_lp_allocation(inc.analysis_for(active))
            assert cold.shares == fast.shares

    def test_subset_analyses_in_any_request_order(self, scenario):
        ids = scenario.flow_ids
        inc = IncrementalContention(scenario)
        for active in ([ids[3], ids[1]], ids[:2], [ids[5], ids[0], ids[2]]):
            expected = [i for i in ids if i in active]
            fast = inc.analysis_for(active)
            assert fast.scenario.flow_ids == expected
            assert_same_analysis(cold_analysis(scenario, expected), fast)

    def test_unknown_flow_rejected(self, scenario):
        inc = IncrementalContention(scenario)
        with pytest.raises(KeyError):
            inc.analysis_for(["nope"])


class TestOneCliqueEnumeration:
    """After the universe is built, epochs and admission probes only
    restrict its cliques — enumeration anywhere raises."""

    def test_runtime_epochs_and_admissions(self, forbid_enumeration,
                                           monkeypatch):
        scenario = make_random_scenario(num_nodes=40, num_flows=10,
                                        seed=7, max_hops=5)
        ids = scenario.flow_ids
        runtime = AllocatorRuntime(scenario, RuntimeConfig())
        runtime.current_analysis()  # builds the topology's universe
        forbid_enumeration()
        for active in (ids[:4], ids, ids[2:8], ids[::2], ids):
            runtime.set_active(active)
        decisions = runtime.admission.decisions
        assert sum(d.action == ADMIT for d in decisions) >= len(ids)
        monkeypatch.undo()
        assert cold_journal_mismatches(scenario, runtime.journal) == []

    def test_runtime_queues_the_shortcut_flow(self, forbid_enumeration):
        """Fig. 3's shortcut flow fails the floor predicate: the probe
        that queues it also runs on restricted cliques."""
        scenario = fig3.make_shortcut_scenario()
        runtime = AllocatorRuntime(scenario, RuntimeConfig())
        runtime.current_analysis()
        forbid_enumeration()
        runtime.set_active(scenario.flow_ids)
        assert [d.reason for d in runtime.admission.decisions] == [
            REASON_FLOOR
        ]
        assert runtime.journal[-1].queued == ["1"]

    def test_batch_register_allocate_release(self, forbid_enumeration,
                                             monkeypatch):
        scenario = make_random_scenario(num_nodes=40, num_flows=10,
                                        seed=7, max_hops=5)
        ids = scenario.flow_ids
        engine = BatchAllocationEngine(ContentionAnalysis(scenario))
        forbid_enumeration()
        engine.register(ids[:5])
        engine.allocate()
        engine.release(ids[1:3])
        engine.register(ids[3:])
        engine.allocate()
        engine.register(ids)  # re-admits the released pair
        rates = engine.allocate()
        active = engine.active_analysis()
        monkeypatch.undo()
        cold = ContentionAnalysis(Scenario(
            scenario.network, active.scenario.flows,
            name=active.scenario.name, capacity=scenario.capacity,
        ))
        assert cold.cliques == active.cliques
        assert rates == ShardedSolver().solve(cold)

    def test_batch_greedy_fallback_rejects_the_shortcut_flow(
        self, forbid_enumeration
    ):
        scenario = fig3.make_shortcut_scenario()
        engine = BatchAllocationEngine(ContentionAnalysis(scenario))
        forbid_enumeration()
        decisions = engine.register(scenario.flow_ids)
        assert [d.action for d in decisions] == [REJECT]
        assert engine.allocate() == {}


class TestDistributedPrecomputedAnalysis:
    def test_precomputed_analysis_matches(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        a = DistributedAllocator(scenario).run()
        b = DistributedAllocator(scenario, analysis=analysis).run()
        assert a.shares == b.shares


class TestDynamicExperimentFastPath:
    def test_snapshots_bit_identical_to_cold_path(self):
        """Every re-allocation the experiment pushes is its runtime's
        committed epoch, bitwise equal to a cold monolithic solve."""
        scenario = fig1.make_scenario()
        schedules = [
            FlowSchedule("1", start=0.0),
            FlowSchedule("2", start=1.0, end=3.0),
        ]
        exp = DynamicAllocationExperiment(scenario, schedules, seed=5)
        snapshots = exp.run(seconds=4.0)
        journal = exp.runtime.journal
        # Epoch 0 is the constructor's full-set allocation.
        assert [s.allocated for s in snapshots] == [
            r.shares for r in journal[1:]
        ]
        assert [s.active_flows for s in snapshots] == [
            r.active for r in journal[1:]
        ]
        assert cold_journal_mismatches(scenario, journal) == []
