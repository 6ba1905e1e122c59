"""Tests for the overload-hardened runtime.

Four contracts from DESIGN.md §15:

* the deadline watchdog commits a carryover epoch on breach — last
  validated allocation kept, staleness recorded, churn deferred (not
  lost), and every breach paired with a staleness record;
* the shedding ladder climbs deterministically under a seeded breach
  burst (queue-shed -> freeze -> clamp) and steps back down after
  clean epochs;
* an unstressed wrapped run is bitwise identical to the bare runtime —
  protection enabled but never triggered costs nothing;
* the overload campaign passes its checks under forced stalls and
  catches an injected fault.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.registry import using_registry
from repro.resilience import (
    AllocatorRuntime,
    ChurnEvent,
    EpochDeadline,
    EpochDeadlineExceeded,
    OverloadConfig,
    OverloadRuntime,
    RuntimeConfig,
    measure_sustainable_rate,
    run_overload,
    run_overload_case,
)
from repro.resilience.admission import (
    REASON_OVERLOAD,
    REASON_QUEUE_AGED,
    AdmissionDecision,
)
from repro.resilience.overload import (
    RUNG_CLAMP,
    RUNG_FREEZE,
    RUNG_NAMES,
    RUNG_NORMAL,
    RUNG_QUEUE,
)
from repro.scenarios import fig1, fig3, fig4
from repro.sim.rng import RngRegistry
from repro.traffic import ArrivalTrace, FlowArrival, OpenLoopConfig, \
    draw_arrival_trace


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _flow_up(epoch, *flows):
    return [ChurnEvent(epoch, "flow-up", flow=f) for f in flows]


class TestEpochDeadline:
    def test_none_budget_never_fires(self):
        deadline = EpochDeadline(None)
        deadline.arm()
        deadline.check("solve")  # must not raise

    def test_unarmed_watchdog_is_inert(self):
        clock = FakeClock()
        deadline = EpochDeadline(1.0, clock=clock)
        clock.t = 100.0
        deadline.check("solve")  # never armed: no-op

    def test_breach_carries_point_and_elapsed(self):
        clock = FakeClock()
        deadline = EpochDeadline(10.0, clock=clock)
        deadline.arm()
        clock.t = 0.005
        deadline.check("solve")  # 5 ms < 10 ms budget
        clock.t = 0.025
        with pytest.raises(EpochDeadlineExceeded) as excinfo:
            deadline.check("validate")
        assert excinfo.value.point == "validate"
        assert excinfo.value.budget_ms == 10.0
        assert excinfo.value.elapsed_ms == pytest.approx(25.0)

    def test_rearm_resets_elapsed(self):
        clock = FakeClock()
        deadline = EpochDeadline(10.0, clock=clock)
        deadline.arm()
        clock.t = 1.0
        deadline.arm()
        deadline.check("solve")  # fresh arm: elapsed 0 again


class TestBreachCommit:
    def _wrapped(self, scenario, **config):
        runtime = AllocatorRuntime(scenario)
        return OverloadRuntime(runtime, OverloadConfig(**config))

    def test_breach_commits_last_validated_allocation(self):
        harness = self._wrapped(fig1.make_scenario())
        before = harness.advance(_flow_up(0, "1", "2"))
        harness.force_breach_epochs = {1}
        record = harness.advance([])
        assert record.status == "deadline-breach"
        assert record.epoch == 1
        assert harness.runtime.epoch == 1
        # The last validated shares carry over unchanged.
        assert record.shares == before.shares
        assert record.active == before.active

    def test_breach_defers_events_instead_of_dropping(self):
        scenario = fig4.make_scenario()
        flows = sorted(scenario.flow_ids)
        harness = self._wrapped(scenario)
        harness.advance(_flow_up(0, *flows[:2]))
        harness.force_breach_epochs = {1}
        breach = harness.advance(_flow_up(1, flows[2]))
        assert flows[2] not in breach.active
        assert harness.deferred  # the arrival is queued for retry
        healed = harness.advance([])
        assert flows[2] in healed.active
        assert not harness.deferred

    def test_every_breach_pairs_with_a_staleness_record(self):
        with using_registry(MetricsRegistry()) as reg:
            harness = self._wrapped(fig1.make_scenario())
            harness.advance(_flow_up(0, "1", "2"))
            harness.force_breach_epochs = {1, 3}
            for _ in range(4):
                harness.advance([])
            breached = {row["epoch"] for row in harness.overload_journal
                        if row["breached"]}
            recorded = {r["epoch"] for r in harness.staleness_records}
            assert breached == recorded == {1, 3}
            assert reg.counters["runtime.epoch.deadline_breach"].value == 2
            assert reg.histograms["runtime.epoch.staleness_age"].values

    def test_staleness_age_accumulates_and_resets(self):
        harness = self._wrapped(fig1.make_scenario())
        harness.advance(_flow_up(0, "1", "2"))
        harness.force_breach_epochs = {1, 2}
        harness.advance([])
        harness.advance([])
        assert harness.stale_age == {"1": 2, "2": 2}
        assert harness.staleness_records[-1]["age_max"] == 2
        harness.advance([])  # clean epoch re-validates
        assert harness.stale_age == {"1": 0, "2": 0}

    def test_breach_rolls_back_aborted_admission_decisions(self):
        scenario = fig4.make_scenario()
        flows = sorted(scenario.flow_ids)
        harness = self._wrapped(scenario)
        harness.advance(_flow_up(0, *flows[:2]))
        logged = len(harness.runtime.admission.decisions)
        harness.force_breach_epochs = {1}
        harness.advance(_flow_up(1, flows[2]))
        # The aborted epoch left no trace in the admission log.
        assert len(harness.runtime.admission.decisions) == logged

    def test_breach_rollback_is_exact_and_serializes_nothing(
        self, monkeypatch
    ):
        # fig3's shortcut flow fails its basic floor and waits in the
        # queue; at the queue-shed rung the next epoch first evicts it
        # as too old, then breaches — the rollback must undo both.
        harness = self._wrapped(fig3.make_shortcut_scenario(),
                                shed_queue_age=0)
        admission = harness.runtime.admission
        harness.advance(_flow_up(0, "1"))
        harness.advance([])
        assert list(admission.waiting) == ["1"]
        before = (list(admission.decisions), list(admission.waiting),
                  dict(admission.queued_epoch))

        calls = []
        to_dict = AdmissionDecision.to_dict
        monkeypatch.setattr(AdmissionDecision, "to_dict",
                            lambda d: calls.append(d) or to_dict(d))
        harness.rung = RUNG_QUEUE
        harness.force_breach_epochs = {harness.runtime.epoch + 1}
        record = harness.advance([])
        assert record.status == "deadline-breach"
        assert (list(admission.decisions), list(admission.waiting),
                dict(admission.queued_epoch)) == before
        assert calls == []  # the rollback point serialized no decision

        # A clean epoch serializes only its own decisions, into its
        # record, however long the log has grown.
        harness.rung = RUNG_NORMAL
        record = harness.advance([])
        assert record.status != "deadline-breach"
        assert len(calls) == len(record.admissions)
        assert len(calls) < len(admission.decisions)


class TestSheddingLadder:
    def _stressed(self, breaches, **config):
        config.setdefault("freeze_after", 2)
        config.setdefault("clamp_after", 3)
        config.setdefault("recover_after", 2)
        runtime = AllocatorRuntime(fig4.make_scenario())
        harness = OverloadRuntime(runtime, OverloadConfig(**config))
        flows = sorted(runtime.scenario.flow_ids)
        harness.advance(_flow_up(0, *flows[:2]))
        harness.force_breach_epochs = set(breaches)
        return harness, flows

    def test_each_rung_reached_deterministically(self):
        harness, _ = self._stressed({1, 2, 3})
        for _ in range(3):
            harness.advance([])
        rungs = [row["rung"] for row in harness.overload_journal]
        # Rung used per epoch: escalation lands after the breach.
        assert rungs == ["normal", "normal", "queue-shed", "freeze"]
        assert harness.rung == RUNG_CLAMP

    def test_recovery_steps_down_one_rung_at_a_time(self):
        harness, _ = self._stressed({1, 2, 3})
        for _ in range(3):
            harness.advance([])
        assert harness.rung == RUNG_CLAMP
        journey = []
        for _ in range(6):  # six clean epochs: three de-escalations
            harness.advance([])
            journey.append(harness.rung)
        assert journey == [RUNG_CLAMP, RUNG_FREEZE, RUNG_FREEZE,
                           RUNG_QUEUE, RUNG_QUEUE, RUNG_NORMAL]

    def test_clamp_epoch_status_and_validity(self):
        harness, _ = self._stressed({1, 2, 3})
        for _ in range(3):
            harness.advance([])
        record = harness.advance([])  # first epoch run at the clamp rung
        assert record.status == "overload-clamp"
        assert record.ok, record.failed_checks()
        assert harness.overload_journal[-1]["rung"] == "clamp"

    def test_freeze_epoch_queues_arrivals_unprobed(self):
        harness, flows = self._stressed({1, 2}, clamp_after=99)
        harness.advance([])
        harness.advance([])
        assert harness.rung == RUNG_FREEZE
        record = harness.advance(_flow_up(3, flows[2]))
        (decision,) = [d for d in record.admissions
                       if d["flow"] == flows[2]]
        assert decision["action"] == "queue"
        assert decision["reason"] == REASON_OVERLOAD

    def test_shed_rungs_tighten_the_queue_age_bound(self):
        harness, flows = self._stressed(
            {1, 2}, shed_queue_age=1, clamp_after=99
        )
        # Reach the freeze rung, queue an arrival unprobed, then let it
        # age while the ladder is still shedding: once its age exceeds
        # shed_queue_age it is evicted as queue-aged.
        harness.advance([])
        harness.advance([])
        assert harness.rung == RUNG_FREEZE
        harness.advance(_flow_up(3, flows[2]))
        assert flows[2] in harness.runtime.admission.waiting
        harness.advance([])  # age 1: still within the bound
        assert flows[2] in harness.runtime.admission.waiting
        harness.advance([])  # age 2 > 1: shed
        aged = [d for d in harness.runtime.admission.decisions
                if d.reason == REASON_QUEUE_AGED]
        assert [d.flow_id for d in aged] == [flows[2]]
        assert flows[2] not in harness.runtime.admission.waiting

    def test_ladder_counters_and_gauge(self):
        with using_registry(MetricsRegistry()) as reg:
            harness, _ = self._stressed({1, 2, 3})
            for _ in range(3):
                harness.advance([])
            for _ in range(6):
                harness.advance([])
            assert reg.counters["runtime.overload.escalations"].value == 3
            assert reg.counters["runtime.overload.deescalations"].value == 3
            assert reg.gauges["runtime.overload.rung"].value == RUNG_NORMAL


    def test_epoch_admissions_visit_only_the_epoch_tail(self):
        """Each record's admissions equal the full-log filter for its
        epoch, including the queue-aged evictions logged before the
        epoch is staged, while staging reads no decision older than the
        one just before the epoch's own."""
        harness, flows = self._stressed(
            {1, 2}, shed_queue_age=1, clamp_after=99
        )
        admission = harness.runtime.admission
        log = _WatchedLog(admission.decisions)
        admission.decisions = log
        events = [[], [], _flow_up(3, flows[2]), [], [], []]
        for batch in events:
            log.touched.clear()
            record = harness.advance(batch)
            full = [d.to_dict() for d in list.__iter__(log)
                    if d.epoch == record.epoch]
            assert record.admissions == full
            first = next((i for i, d in enumerate(list.__iter__(log))
                          if d.epoch == record.epoch), len(log))
            assert min(log.touched, default=len(log)) >= first - 1
        assert "queue-shed" in {row["rung"]
                                for row in harness.overload_journal}
        evicted = [r for r in harness.runtime.journal
                   if any(d["reason"] == REASON_QUEUE_AGED
                          for d in r.admissions)]
        assert [r.epoch for r in evicted] == [5]


class _WatchedLog(list):
    """A decision log that records every index read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.touched = set()

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.touched.update(range(*key.indices(len(self))))
        else:
            self.touched.add(key % len(self))
        return super().__getitem__(key)

    def __iter__(self):
        self.touched.update(range(len(self)))
        return super().__iter__()


class TestUnstressedPassThrough:
    def test_bitwise_identity_with_bare_runtime(self):
        scenario = fig4.make_scenario()
        flows = sorted(scenario.flow_ids)
        epochs = [
            _flow_up(0, *flows[:2]),
            _flow_up(1, flows[2]),
            [ChurnEvent(2, "flow-down", flow=flows[0])],
            [],
        ]
        bare = AllocatorRuntime(scenario, RuntimeConfig(hysteresis=0.3))
        wrapped = OverloadRuntime(
            AllocatorRuntime(scenario, RuntimeConfig(hysteresis=0.3))
        )
        for events in epochs:
            assert bare.advance(events) == wrapped.advance(events)
        assert bare.state_payload() == wrapped.runtime.state_payload()
        assert wrapped.stats()["breaches"] == 0
        assert all(row["rung"] == "normal"
                   for row in wrapped.overload_journal)

    def test_run_trace_serves_and_departs_flows(self):
        scenario = fig4.make_scenario()
        flows = sorted(scenario.flow_ids)
        harness = OverloadRuntime(AllocatorRuntime(scenario))
        trace = ArrivalTrace(
            epochs=6,
            arrivals=(
                FlowArrival(0, flows[0], duration=2),
                FlowArrival(1, flows[1], duration=1),
            ),
        )
        records = harness.run_trace(trace)
        assert len(records) == 6
        # Finite flows: both served their time and departed.
        assert harness.runtime.active == set()
        stats = harness.stats()
        assert stats["epochs"] == 6
        assert stats["breaches"] == 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] > 0.0


class TestOverloadCampaign:
    def test_case_checks_pass_under_forced_stalls(self):
        scenario = fig4.make_scenario()
        trace = draw_arrival_trace(
            np.random.default_rng(3), sorted(scenario.flow_ids), 10,
            OpenLoopConfig(rate=3.0),
        )
        case = run_overload_case(
            scenario, trace, hysteresis=0.3, max_queue_age=4,
            stall_epochs=2,
        )
        assert case.ok, case.failed_checks()
        assert case.tallies["breaches"] == 2
        assert case.tallies["epochs_run"] == 10
        assert "deadline-breach" in case.statuses
        names = [name for name, _ok, _d in case.checks]
        assert "overload.breach_recorded" in names
        assert "overload.final_clique_capacity" in names

    def test_sustainable_rate_comes_from_the_ladder(self):
        scenario = fig4.make_scenario()
        rate = measure_sustainable_rate(
            scenario, RngRegistry(0), 0, epochs=4,
            rates=(0.5, 1.0, 2.0),
        )
        assert rate in (0.5, 1.0, 2.0)

    def test_campaign_report_round_trips(self):
        report = run_overload(cases=2, seed=0, epochs=8, multiplier=2.0,
                              stall_epochs=1)
        assert report.ok, report.violations
        assert report.totals["breaches"] == 2  # one forced stall per case
        assert len(report.totals["rates"]) == 2
        for row in report.totals["rates"]:
            assert row["offered"] == pytest.approx(2.0 * row["sustainable"])
        doc = report.to_dict()
        assert doc["cases"] == 2
        assert doc["breaches"] == 2
        rendered = report.render()
        assert "sustainable" in rendered
        assert "p99" in rendered

    def test_injected_fault_is_caught_and_breach_fires(self):
        report = run_overload(cases=1, seed=0, epochs=8, inject_fault=True)
        assert not report.ok  # the perturbed allocation must be caught
        assert report.totals["breaches"] > 0  # and the forced stalls must bite
        assert any(v.check.startswith("overload.")
                   for v in report.violations)
        assert report.violations[0].replay["arrival_trace"]["epochs"] > 0
