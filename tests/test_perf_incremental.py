"""IncrementalContention vs cold rebuilds: bit-identical analyses and
allocations across flow churn, plus the dynamic experiment fast path."""

import pytest

from repro.core.allocation import basic_fairness_lp_allocation
from repro.core.contention import ContentionAnalysis
from repro.core.distributed import DistributedAllocator
from repro.core.model import Flow, Scenario
from repro.experiments import DynamicAllocationExperiment, FlowSchedule
from repro.obs.registry import using_registry
from repro.perf.incremental import IncrementalContention
from repro.scenarios import fig1
from repro.verify.oracles import cold_journal_mismatches
from repro.scenarios.random_topology import (
    random_connected_network,
    random_flows,
)


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

    def test_component_cache_hits_on_revisit(self, scenario):
        ids = scenario.flow_ids
        inc = IncrementalContention(scenario)
        with using_registry() as reg:
            inc.analysis_for(ids)
            inc.analysis_for(ids)  # same active set: all components cached
        assert reg.counters["perf.incremental.component_hits"].value > 0

    def test_add_and_remove_flow_api(self, scenario):
        ids = scenario.flow_ids
        inc = IncrementalContention(scenario, active=ids[:2])
        inc.add_flow(ids[3])
        inc.remove_flow(ids[0])
        expected = [i for i in ids if i in {ids[1], ids[3]}]
        assert inc.active_ids == expected
        assert_same_analysis(
            cold_analysis(scenario, expected), inc.analysis()
        )

    def test_register_genuinely_new_flow(self):
        scenario = fig1.make_scenario()
        inc = IncrementalContention(scenario)
        path = scenario.flows[0].path[:2]  # reuse an existing hop
        newcomer = Flow("99", list(path), 1.0)
        inc.add_flow(newcomer)
        augmented = Scenario(
            scenario.network,
            list(scenario.flows) + [newcomer],
            name=f"{scenario.name}-active",
            capacity=scenario.capacity,
        )
        assert_same_analysis(
            ContentionAnalysis(augmented), inc.analysis()
        )

    def test_unknown_flow_rejected(self, scenario):
        inc = IncrementalContention(scenario)
        with pytest.raises(KeyError):
            inc.add_flow("nope")
        with pytest.raises(KeyError):
            inc.set_active(["nope"])


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
