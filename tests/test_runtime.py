"""Tests for repro.resilience.runtime: the long-lived allocator.

The runtime's contract: every committed epoch satisfies Eq. (6) and the
Sec. II-D basic-share floor for the flows it admitted; churn (link/node
outages, flow arrivals/departures) moves flows between active, queued,
and suspended with machine-readable reasons; and the whole state machine
is deterministic per ``(scenario, config, events)``.
"""

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.resilience import (
    ADMIT,
    QUEUE,
    REJECT,
    AllocatorRuntime,
    ChurnEvent,
    ChurnTimeline,
    RuntimeConfig,
    global_basic_shares,
    run_churn,
)
from repro.resilience.admission import (
    REASON_ENDPOINT_DOWN,
    REASON_QUEUE_FULL,
    REASON_UNROUTABLE,
)
from repro.scenarios import fig1, fig4, fig6, grid_scenario
from repro.verify.invariants import check_clique_capacity


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


def _flow_up(epoch, *flows):
    return [ChurnEvent(epoch, "flow-up", flow=f) for f in flows]


class TestEpochPipeline:
    def test_initial_epoch_matches_pinned_allocation(self):
        runtime = AllocatorRuntime(fig1.make_scenario())
        record = runtime.advance(_flow_up(0, "1", "2"))
        assert runtime.epoch == 0
        assert record.epoch == 0
        assert record.status == "converged"
        assert record.ok, record.failed_checks()
        # Fig. 1's known optimum: r_1 = 0.50, r_2 = 0.25.
        assert record.shares["1"] == pytest.approx(0.5)
        assert record.shares["2"] == pytest.approx(0.25)
        assert [d["action"] for d in record.admissions] == [ADMIT, ADMIT]
        assert runtime.journal == [record]

    def test_link_outage_suspends_then_heals_and_readmits(self):
        runtime = AllocatorRuntime(fig1.make_scenario())
        runtime.advance(_flow_up(0, "1", "2"))

        # Link B-C breaks: flow 1 (A-B-C) has no alternate path in
        # Fig. 1, so it is suspended into the queue with a reason, and
        # flow 2 alone expands to its lone-flow optimum.
        down = runtime.advance(
            [ChurnEvent(1, "link-down", link=("B", "C"))]
        )
        assert down.suspended == ["1"]
        assert down.active == ["2"]
        assert down.queued == ["1"]
        assert down.shares["2"] == pytest.approx(0.5)
        (decision,) = down.admissions
        assert decision["flow"] == "1"
        assert decision["action"] == QUEUE
        assert decision["reason"] == REASON_UNROUTABLE

        # The link heals: the queued flow is readmitted FIFO and the
        # allocation returns to the two-flow optimum.
        healed = runtime.advance(
            [ChurnEvent(2, "link-up", link=("B", "C"))]
        )
        assert healed.active == ["1", "2"]
        assert healed.queued == []
        (readmit,) = healed.admissions
        assert (readmit["flow"], readmit["action"]) == ("1", ADMIT)
        assert healed.shares["1"] == pytest.approx(0.5)
        assert healed.shares["2"] == pytest.approx(0.25)

    def test_node_outage_triggers_dsr_reroute(self):
        """Grid flow 1 (g00-g01-g02-g03) survives losing g01 via a DSR
        repair route; the repaired epoch still passes its checks."""
        scenario = grid_scenario()
        runtime = AllocatorRuntime(scenario)
        runtime.advance(_flow_up(0, "1", "2"))
        record = runtime.advance(
            [ChurnEvent(1, "node-down", node="g01")]
        )
        assert record.rerouted == ["1"]
        assert record.suspended == []
        assert record.active == ["1", "2"]
        assert record.ok, record.failed_checks()
        analysis = runtime.current_analysis()
        (repaired,) = [f for f in analysis.scenario.flows
                       if f.flow_id == "1"]
        assert "g01" not in repaired.path
        assert check_clique_capacity(analysis, record.shares).ok

    def test_unknown_event_entities_are_skipped_not_fatal(self):
        """Shrunk reproducers may reference entities a scenario shrink
        removed; the runtime counts and skips them."""
        runtime = AllocatorRuntime(fig1.make_scenario())
        record = runtime.advance(
            _flow_up(0, "1", "2")
            + [
                ChurnEvent(0, "flow-up", flow="99"),
                ChurnEvent(0, "node-down", node="ZZ"),
                ChurnEvent(0, "link-down", link=("ZZ", "QQ")),
            ]
        )
        assert record.skipped_events == 3
        assert record.active == ["1", "2"]
        assert len(record.events) == 2  # only the applied ones journal

    def test_set_active_diffs_and_memoizes(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            scenario = fig4.make_scenario()
            runtime = AllocatorRuntime(
                scenario, RuntimeConfig(admission=False)
            )
            first = runtime.set_active(["1", "2", "3", "4"])
            runtime.set_active(["1", "3"])
            again = runtime.set_active(["1", "2", "3", "4"])
        finally:
            obs.set_registry(None)
        assert runtime.epoch == 2
        assert again == first  # bitwise: served from the memo
        counters = registry.snapshot()["counters"]
        assert counters["runtime.alloc.memo_hits"] >= 1
        assert counters["runtime.epoch.committed"] == 3

    def test_set_active_rejects_unknown_flows(self):
        runtime = AllocatorRuntime(fig1.make_scenario())
        with pytest.raises(KeyError, match="unknown flows"):
            runtime.set_active(["1", "nope"])

    def test_advance_is_deterministic(self):
        """Same scenario, config, and events → identical journals."""
        timeline = ChurnTimeline(
            epochs=4,
            initial_active=("1", "2"),
            events=(
                ChurnEvent(1, "link-down", link=("B", "C")),
                ChurnEvent(2, "link-up", link=("B", "C")),
                ChurnEvent(3, "flow-down", flow="2"),
            ),
        )
        journals = []
        for _ in range(2):
            runtime = AllocatorRuntime(
                fig1.make_scenario(), RuntimeConfig(seed=5)
            )
            runtime.run_timeline(timeline)
            journals.append([r.to_dict() for r in runtime.journal])
        assert journals[0] == journals[1]


class TestHysteresis:
    def test_transitions_are_rate_limited_and_converge(self):
        """Joining the full Fig. 6 set moves every flow's share by at
        most a factor ``1 ± h`` per epoch (above its floor) until the
        allocation settles at the new optimum — no flapping."""
        h = 0.25
        runtime = AllocatorRuntime(
            fig6.make_scenario(),
            RuntimeConfig(admission=False, hysteresis=h),
        )
        runtime.set_active(["4", "5"])
        prev = dict(runtime.shares)
        assert prev["5"] == pytest.approx(1 / 3)
        saw_damped = False
        for _ in range(8):
            runtime.set_active(["1", "2", "3", "4", "5"])
            record = runtime.journal[-1]
            assert record.ok, record.failed_checks()
            for fid in ("4", "5"):  # flows with a rate to protect
                assert runtime.shares[fid] <= prev[fid] * (1 + h) + 1e-12
                assert runtime.shares[fid] >= prev[fid] * (1 - h) - 1e-12
            saw_damped = saw_damped or record.damped
            prev = dict(runtime.shares)
        assert saw_damped
        # Geometric climb reaches the full-set optimum exactly.
        assert prev["5"] == pytest.approx(0.75)
        assert prev["4"] == pytest.approx(0.125)
        assert not runtime.journal[-1].damped  # converged: no clamping

    def test_damped_epochs_still_pass_the_paper_checks(self):
        """Damping a crash from 1.0 down to the crowded optimum cannot
        be honoured smoothly (Eq. (6) binds); the committed allocation
        must satisfy Eq. (6) and the floors anyway."""
        runtime = AllocatorRuntime(
            fig1.make_scenario(),
            RuntimeConfig(admission=False, hysteresis=0.05),
        )
        runtime.set_active(["2"])
        assert runtime.shares["2"] == pytest.approx(0.5)
        for _ in range(3):
            runtime.set_active(["1", "2"])
            record = runtime.journal[-1]
            assert record.ok, record.failed_checks()
        analysis = runtime.current_analysis()
        floors = global_basic_shares(analysis)
        for fid, floor in floors.items():
            assert runtime.shares[fid] >= floor - 1e-9


class TestRuntimeAdmission:
    def test_dead_endpoint_arrival_queues_with_reason(self):
        runtime = AllocatorRuntime(fig1.make_scenario())
        runtime.advance(_flow_up(0, "2"))
        record = runtime.advance(
            [ChurnEvent(1, "node-down", node="A")] + _flow_up(1, "1")
        )
        (decision,) = record.admissions
        assert decision["action"] == QUEUE
        assert decision["reason"] == REASON_ENDPOINT_DOWN
        assert record.active == ["2"]
        assert record.queued == ["1"]

        # The node rejoins: the queued flow enters without being asked.
        healed = runtime.advance([ChurnEvent(2, "node-up", node="A")])
        assert healed.active == ["1", "2"]
        assert healed.queued == []

    def test_full_queue_rejects_with_queue_full_reason(self):
        runtime = AllocatorRuntime(
            fig1.make_scenario(), RuntimeConfig(max_queue=0)
        )
        runtime.advance(_flow_up(0, "2"))
        record = runtime.advance(
            [ChurnEvent(1, "node-down", node="A")] + _flow_up(1, "1")
        )
        (decision,) = record.admissions
        assert decision["action"] == REJECT
        assert decision["reason"] == REASON_QUEUE_FULL
        assert REASON_ENDPOINT_DOWN in decision["details"]
        assert record.queued == []

    def test_admission_off_still_gates_on_routing(self):
        """``admission=False`` disables the floor predicate, never the
        physical one: a flow with no path cannot be activated."""
        runtime = AllocatorRuntime(
            fig1.make_scenario(), RuntimeConfig(admission=False)
        )
        record = runtime.advance(
            [ChurnEvent(0, "node-down", node="A")] + _flow_up(0, "1", "2")
        )
        assert record.active == ["2"]
        by_flow = {d["flow"]: d for d in record.admissions}
        assert by_flow["1"]["reason"] == REASON_ENDPOINT_DOWN
        assert by_flow["2"]["reason"] == "ok"

    def test_departed_flow_leaves_the_waiting_queue(self):
        runtime = AllocatorRuntime(fig1.make_scenario())
        runtime.advance(_flow_up(0, "2"))
        runtime.advance(
            [ChurnEvent(1, "node-down", node="A")] + _flow_up(1, "1")
        )
        assert list(runtime.admission.waiting) == ["1"]
        record = runtime.advance(
            [ChurnEvent(2, "flow-down", flow="1")]
        )
        assert record.queued == []
        # Healing afterwards must NOT resurrect the departed flow.
        healed = runtime.advance([ChurnEvent(3, "node-up", node="A")])
        assert healed.active == ["2"]


class TestChurnCampaign:
    def test_small_campaign_holds_invariants(self):
        report = run_churn(
            cases=2, seed=0, loss_rates=(0.0, 0.2), epochs=6
        )
        assert report.ok, [v.to_dict() for v in report.violations]
        # statuses tally per committed epoch: 2 cases × 2 rates × 6.
        assert sum(report.statuses.values()) == 24
        assert report.totals["epochs_run"] == 24
        assert report.checks["churn.crash_restore_identical"]["fail"] == 0
        assert report.checks["churn.epoch_checks"]["fail"] == 0
        assert report.totals["admissions"][ADMIT] >= 1
        rendered = report.render()
        assert "all churn safety invariants held" in rendered

    def test_injected_fault_is_caught(self):
        report = run_churn(
            cases=2, seed=0, loss_rates=(0.0,), epochs=5,
            inject_fault=True, max_violations=2,
        )
        assert not report.ok
        violation = report.violations[0]
        assert violation.check in (
            "churn.final_clique_capacity", "churn.final_basic_floor"
        )
        # Violations carry a replayable timeline next to the scenario.
        doc = violation.replay["churn_timeline"]
        timeline = ChurnTimeline.from_dict(doc)
        assert timeline.to_dict() == doc
        assert violation.scenario["flows"]

    def test_report_round_trips_to_dict(self):
        report = run_churn(cases=2, seed=1, loss_rates=(0.0,), epochs=4)
        doc = report.to_dict()
        assert doc["ok"] is report.ok
        assert doc["cases"] == 2
        assert set(doc["checks"]) == set(report.checks)
        assert doc["epochs_run"] == report.totals["epochs_run"]


class TestRuntimeConfig:
    @pytest.mark.parametrize("field,value", [
        ("mode", "monolithic"),
        ("hysteresis", 0.0),
        ("loss", 1.5),
        ("loss", -0.1),
        ("crash_prob", 1.5),
        ("crash_prob", -0.1),
        ("max_queue", -1),
        ("max_queue_age", -1),
    ])
    def test_out_of_range_values_are_rejected(self, field, value):
        """Rejected at construction, so a checkpoint loaded through
        ``from_dict`` is validated too."""
        with pytest.raises(ValueError, match=field):
            RuntimeConfig(**{field: value})
        doc = RuntimeConfig().to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            RuntimeConfig.from_dict(doc)

    def test_range_edges_are_accepted(self):
        config = RuntimeConfig(loss=1.0, crash_prob=1.0, max_queue=0,
                               max_queue_age=0)
        assert RuntimeConfig.from_dict(config.to_dict()) == config
