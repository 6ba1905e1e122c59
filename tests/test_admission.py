"""Admission control: the Sec. II-D predicate and the queue controller.

The predicate (:func:`basic_share_feasible`) is Eq. (6) evaluated with
every flow at its basic share; the paper proves it holds for shortcut-
free flow groups, and it fails exactly where the paper says allocation
needs virtual lengths — shortcut paths.  The controller turns verdicts
into admit/queue/reject decisions with machine-readable reasons and
survives checkpoint round trips.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import ContentionAnalysis
from repro.core.model import Scenario
from repro.resilience import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    basic_share_feasible,
)
from repro.resilience.admission import (
    REASON_FLOOR,
    REASON_OK,
    REASON_QUEUE_AGED,
    REASON_QUEUE_FULL,
    REASON_UNROUTABLE,
)
from repro.scenarios import fig1, fig3, fig4, fig6
from tests.test_lp_revised import LIBRARY

_WORKLOADS = (Path(__file__).resolve().parent.parent / "allocbench"
              / "workloads.py")


def _mesh_universe():
    spec = importlib.util.spec_from_file_location(
        "allocbench_workloads", _WORKLOADS
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve it there
    spec.loader.exec_module(workloads)
    return workloads.mesh_universe()


UNIVERSES = dict(LIBRARY, mesh=_mesh_universe)


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


def cold_feasible(scenario):
    """The predicate over ``scenario``'s own (cold) maximal cliques."""
    analysis = ContentionAnalysis(scenario)
    return basic_share_feasible(analysis.cliques, scenario.flows,
                                scenario.capacity)


class TestBasicShareFeasible:
    @pytest.mark.parametrize("factory", [
        fig1.make_scenario,
        fig3.make_chain_scenario,
        fig4.make_scenario,
        fig6.make_scenario,
    ])
    def test_shortcut_free_groups_are_always_feasible(self, factory):
        """Sec. III-B: without shortcuts, basic shares jointly satisfy
        every clique constraint — admission can never starve a peer."""
        assert cold_feasible(factory())

    def test_tight_capacity_fails_the_predicate(self):
        """Fig. 3's shortcut path: the flow's virtual length undercounts
        the hops one clique holds, so the floors alone overfill it."""
        assert not cold_feasible(fig3.make_shortcut_scenario())

    @pytest.mark.parametrize("name", sorted(UNIVERSES))
    def test_universe_cliques_give_the_cold_verdict(self, name):
        """Checking every restricted universe clique C ∩ T agrees with
        checking the trial set's own maximal cliques, on random trial
        sets (flows kept in universe order)."""
        universe = UNIVERSES[name]()
        cliques = ContentionAnalysis(universe).cliques
        rng = random.Random(name)
        for _ in range(12):
            trial = [f for f in universe.flows if rng.random() < 0.6]
            if not trial:
                continue
            scenario = Scenario(universe.network, trial,
                                capacity=universe.capacity)
            assert (basic_share_feasible(cliques, trial, universe.capacity)
                    == cold_feasible(scenario))


class TestAdmissionController:
    def test_ok_reason_admits(self):
        controller = AdmissionController()
        decision = controller.decide("f1", 0, REASON_OK)
        assert decision.action == ADMIT
        assert decision.reason == REASON_OK
        assert list(controller.waiting) == []

    def test_non_ok_reason_queues_fifo(self):
        controller = AdmissionController()
        controller.decide("f1", 0, REASON_FLOOR)
        controller.decide("f2", 0, REASON_UNROUTABLE)
        assert list(controller.waiting) == ["f1", "f2"]
        assert [d.action for d in controller.decisions] == [QUEUE, QUEUE]

    def test_already_waiting_flow_is_rejected_not_requeued(self):
        controller = AdmissionController()
        controller.decide("f1", 0, REASON_FLOOR)
        decision = controller.decide("f1", 1, REASON_FLOOR)
        assert decision.action == REJECT
        assert list(controller.waiting) == ["f1"]  # no duplicate

    def test_full_queue_rejects_with_typed_reason(self):
        controller = AdmissionController(max_queue=1)
        controller.decide("f1", 0, REASON_FLOOR)
        decision = controller.decide("f2", 0, REASON_FLOOR)
        assert decision.action == REJECT
        assert decision.reason == REASON_QUEUE_FULL
        assert REASON_FLOOR in decision.details  # original verdict kept

    def test_queue_disabled_means_hard_reject(self):
        controller = AdmissionController(queue_rejected=False)
        decision = controller.decide("f1", 0, REASON_FLOOR)
        assert decision.action == REJECT
        assert decision.reason == REASON_FLOOR
        assert not controller.waiting

    def test_readmit_clears_queue_and_logs_admit(self):
        controller = AdmissionController()
        controller.decide("f1", 0, REASON_FLOOR)
        decision = controller.readmit("f1", 3)
        assert decision.action == ADMIT
        assert decision.epoch == 3
        assert list(controller.waiting) == []

    def test_drop_waiting_tolerates_unknown_flows(self):
        controller = AdmissionController()
        controller.drop_waiting("ghost")  # must not raise
        controller.decide("f1", 0, REASON_FLOOR)
        controller.drop_waiting("f1")
        assert not controller.waiting

    def test_every_decision_is_machine_readable(self):
        controller = AdmissionController(max_queue=1)
        controller.decide("f1", 0, REASON_OK)
        controller.decide("f2", 0, REASON_FLOOR)
        controller.decide("f3", 1, REASON_UNROUTABLE)
        for decision in controller.decisions:
            doc = decision.to_dict()
            assert set(doc) == {
                "flow", "epoch", "action", "reason", "details"
            }
            assert doc["reason"]  # never empty

    def test_snapshot_restore_round_trip(self):
        controller = AdmissionController(max_queue=2)
        controller.decide("f1", 0, REASON_OK)
        controller.decide("f2", 0, REASON_FLOOR)
        controller.decide("f3", 1, REASON_UNROUTABLE, "no path via X")
        snap = controller.snapshot()

        clone = AdmissionController(max_queue=2)
        clone.restore(snap)
        assert clone.snapshot() == snap
        assert list(clone.waiting) == list(controller.waiting)
        assert clone.decisions == controller.decisions


class TestAgedEviction:
    def test_no_age_bound_is_a_noop(self):
        controller = AdmissionController()
        controller.decide("f1", 0, REASON_FLOOR)
        assert controller.evict_aged(100) == []
        assert list(controller.waiting) == ["f1"]

    def test_eviction_fires_strictly_above_the_bound(self):
        controller = AdmissionController(max_queue_age=2)
        controller.decide("f1", 0, REASON_FLOOR)
        assert controller.evict_aged(2) == []  # age 2 == bound: kept
        (decision,) = controller.evict_aged(3)  # age 3 > bound: shed
        assert decision.action == REJECT
        assert decision.reason == REASON_QUEUE_AGED
        assert "waited 3 epochs" in decision.details
        assert not controller.waiting
        assert "f1" not in controller.queued_epoch

    def test_max_age_zero_allows_exactly_one_retry_epoch(self):
        controller = AdmissionController(max_queue_age=0)
        controller.decide("f1", 5, REASON_FLOOR)
        assert controller.evict_aged(5) == []  # the queuing epoch itself
        assert len(controller.evict_aged(6)) == 1

    def test_override_tightens_the_configured_bound(self):
        """The overload ladder passes ``max_age`` explicitly; it must
        win over the (looser) configured bound."""
        controller = AdmissionController(max_queue_age=10)
        controller.decide("f1", 0, REASON_FLOOR)
        assert controller.evict_aged(4) == []
        assert len(controller.evict_aged(4, max_age=1)) == 1

    def test_only_overaged_flows_are_shed(self):
        controller = AdmissionController(max_queue_age=1)
        controller.decide("old", 0, REASON_FLOOR)
        controller.decide("young", 3, REASON_FLOOR)
        evicted = controller.evict_aged(4)
        assert [d.flow_id for d in evicted] == ["old"]
        assert list(controller.waiting) == ["young"]

    def test_eviction_is_counted(self):
        from repro.obs import MetricsRegistry
        from repro.obs.registry import using_registry

        with using_registry(MetricsRegistry()) as reg:
            controller = AdmissionController(max_queue_age=0)
            controller.decide("f1", 0, REASON_FLOOR)
            controller.decide("f2", 0, REASON_FLOOR)
            assert len(controller.evict_aged(2)) == 2
            assert reg.counters["admission.evicted"].value == 2
            assert reg.counters[f"admission.{REJECT}"].value == 2

    def test_snapshot_restore_preserves_queue_ages(self):
        controller = AdmissionController(max_queue_age=3)
        controller.decide("f1", 0, REASON_FLOOR)
        controller.decide("f2", 2, REASON_UNROUTABLE)
        snap = controller.snapshot()

        clone = AdmissionController(max_queue_age=3)
        clone.restore(snap)
        assert clone.queued_epoch == controller.queued_epoch
        # The restored clone sheds on the same epoch the original would.
        assert [d.flow_id for d in clone.evict_aged(4)] == ["f1"]
        assert [d.flow_id for d in controller.evict_aged(4)] == ["f1"]
