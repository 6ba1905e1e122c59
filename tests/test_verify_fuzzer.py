"""Fuzz harness: generation determinism, the suite, shrinking, fault
injection (the generate → check → shrink → serialize loop end to end)."""

import json

import pytest

from repro.scenarios.io import scenario_from_dict, scenario_to_dict
from repro.sim.rng import RngRegistry
from repro.verify import (
    VerificationSuite,
    generate_scenario,
    inject_share_fault,
    run_fuzz,
    shrink_scenario,
)
from repro.verify.fuzzer import FAIL, PASS


class TestGeneration:
    def test_deterministic_per_seed_and_index(self):
        a = generate_scenario(RngRegistry(7), 3)
        b = generate_scenario(RngRegistry(7), 3)
        assert scenario_to_dict(a) == scenario_to_dict(b)

    def test_cases_are_independent_of_each_other(self):
        """Case 3 regenerates identically whether or not cases 0-2 were
        drawn first from the same registry (dedicated streams)."""
        registry = RngRegistry(7)
        for i in range(3):
            generate_scenario(registry, i)
        after_others = generate_scenario(registry, 3)
        fresh = generate_scenario(RngRegistry(7), 3)
        assert scenario_to_dict(after_others) == scenario_to_dict(fresh)

    def test_different_seeds_differ(self):
        a = generate_scenario(RngRegistry(0), 0)
        b = generate_scenario(RngRegistry(1), 0)
        assert scenario_to_dict(a) != scenario_to_dict(b)

    def test_generated_scenarios_are_wellformed(self):
        for index in range(5):
            s = generate_scenario(RngRegistry(11), index)
            assert len(s.flows) >= 2
            for f in s.flows:
                assert len(f.path) >= 2
                assert all(n in s.network.nodes for n in f.path)

    def test_roundtrips_through_io(self):
        s = generate_scenario(RngRegistry(3), 1)
        back = scenario_from_dict(scenario_to_dict(s))
        assert scenario_to_dict(back) == scenario_to_dict(s)


class TestSuite:
    def test_healthy_scenario_all_pass(self):
        scenario = generate_scenario(RngRegistry(0), 0)
        outcomes = VerificationSuite().run(scenario)
        assert len(outcomes) == 17
        assert all(o.status == PASS for o in outcomes), [
            (o.name, o.status, o.details) for o in outcomes
        ]

    def test_injected_fault_is_caught(self):
        scenario = generate_scenario(RngRegistry(0), 0)
        suite = VerificationSuite(fault=inject_share_fault)
        failed = {o.name for o in suite.run(scenario) if o.failed}
        # The inflated share must at least overload a clique, and it
        # moves the session's shares off the reference ladder's.
        assert "lp.clique_capacity" in failed
        assert "maxmin.session" in failed

    def test_check_names_are_stable(self):
        scenario = generate_scenario(RngRegistry(0), 1)
        names = [o.name for o in VerificationSuite().run(scenario)]
        assert names == [
            "cliques.brute_force",
            "invariants.virtual_length",
            "invariants.omega_le_basic_denom",
            "basic.clique_capacity",
            "basic.basic_fairness",
            "basic.fairness_constraint",
            "basic.prop1_bound",
            "prop1.clique_capacity",
            "prop1.fairness_constraint",
            "prop1.prop1_bound",
            "lp.clique_capacity",
            "lp.basic_fairness",
            "lp.float_vs_exact",
            "lp.allocation_total_optimal",
            "lp.maxmin_certificate",
            "maxmin.session",
            "2pad.vs_centralized",
        ]


class TestShrinking:
    def test_shrinks_to_single_flow_when_any_flow_fails(self):
        scenario = generate_scenario(RngRegistry(0), 0)
        assert len(scenario.flows) >= 2
        minimal = shrink_scenario(scenario, lambda s: True)
        assert len(minimal.flows) == 1
        # Unused nodes are pruned too.
        used = {n for f in minimal.flows for n in f.path}
        assert set(minimal.network.nodes) == used

    def test_keeps_scenario_when_shrink_breaks_failure(self):
        scenario = generate_scenario(RngRegistry(0), 0)
        n = len(scenario.flows)
        minimal = shrink_scenario(
            scenario, lambda s: len(s.flows) == n
        )
        assert len(minimal.flows) == n

    def test_crashing_candidates_are_rejected(self):
        scenario = generate_scenario(RngRegistry(0), 0)

        def predicate(s):
            if len(s.flows) < len(scenario.flows):
                raise RuntimeError("checker crashed on candidate")
            return True

        minimal = shrink_scenario(scenario, predicate)
        assert len(minimal.flows) == len(scenario.flows)


class TestRunFuzz:
    def test_clean_run(self):
        report = run_fuzz(cases=10, seed=0)
        assert report.ok
        assert not report.failures
        assert report.checks["cliques.brute_force"][PASS] >= 1
        for name, row in report.checks.items():
            assert row[FAIL] == 0, (name, row)

    def test_fault_injection_end_to_end(self, tmp_path):
        """Acceptance path: injected fault caught, shrunk to a minimal
        scenario, serialized with its originating seed, and reloadable."""
        report = run_fuzz(
            cases=5, seed=0, inject_fault=True,
            reproducer_dir=str(tmp_path),
        )
        assert report.ok  # with a fault injected, ok == caught something
        assert report.failures
        failure = report.failures[0]
        assert failure.check == "lp.clique_capacity"
        # Shrunk at least as small, and still well-formed.
        assert len(failure.shrunk["flows"]) <= len(
            failure.scenario["flows"]
        )
        doc = json.loads(open(failure.reproducer_path).read())
        assert doc["kind"] == "repro.verify/reproducer"
        assert doc["seed"] == 0
        assert doc["check"] == "lp.clique_capacity"
        reloaded = scenario_from_dict(doc["scenario"])
        assert reloaded.flows  # replayable
        # The shrunk reproducer still fails the same check.
        suite = VerificationSuite(fault=inject_share_fault)
        assert any(
            o.name == failure.check and o.failed
            for o in suite.run(reloaded)
        )

    def test_missing_fault_means_unhealthy(self):
        """A fault-injected run that catches nothing reports not-ok:
        guards against the checkers rotting into yes-men."""
        report = run_fuzz(cases=3, seed=0, inject_fault=True)
        assert report.failures  # sanity: the fault IS caught today
        report.failures.clear()
        assert not report.ok

    def test_report_dict_shape(self):
        report = run_fuzz(cases=3, seed=1)
        doc = report.to_dict()
        assert doc["cases"] == 3
        assert doc["seed"] == 1
        assert doc["ok"] is True
        assert set(doc["checks"]) == {
            o for o in doc["checks"]
        }
        for row in doc["checks"].values():
            assert set(row) == {"pass", "fail", "skip"}

    def test_render_mentions_every_check(self):
        report = run_fuzz(cases=2, seed=0)
        text = report.render()
        for name in report.checks:
            assert name in text
        assert "all checks passed" in text

    def test_max_failures_stops_early(self, tmp_path):
        report = run_fuzz(
            cases=50, seed=0, inject_fault=True, max_failures=2,
        )
        assert len(report.failures) == 2


class TestChurnMode:
    def test_churn_mode_adds_runtime_checks(self):
        report = run_fuzz(cases=3, seed=0, churn=True)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.checks["churn.no_raise"][PASS] == 3
        assert report.checks["churn.epoch_checks"][PASS] == 3
        assert report.checks["churn.crash_restore_identical"][PASS] == 3


class TestShardedMode:
    def test_sharded_mode_adds_differential_checks(self):
        report = run_fuzz(cases=3, seed=0, sharded=True)
        assert report.ok, [f.to_dict() for f in report.failures]
        for check in ("sharded.vs_monolithic", "sharded.relabeled",
                      "sharded.runtime_centralized"):
            assert report.checks[check][PASS] == 3, check

    def test_relabeled_check_catches_shares_mapped_to_the_wrong_flows(
        self, monkeypatch
    ):
        """A memo that hands cached shares out in reverse position order
        fails the relabeled copy on a case with unequal shares."""
        from repro.perf import shard

        solve_problems = shard.ShardedSolver.solve_problems

        def reversed_hits(self, problems, held=0):
            primed = {key for key, _ in self.dump_state()}
            results = solve_problems(self, problems, held)
            return [
                dict(zip(p.group_ids, reversed(list(r.values()))))
                if p.fingerprint in primed else r
                for p, r in zip(problems, results)
            ]

        monkeypatch.setattr(shard.ShardedSolver, "solve_problems",
                            reversed_hits)
        report = run_fuzz(cases=3, seed=0, sharded=True)
        assert report.checks["sharded.relabeled"][FAIL] >= 1
        assert report.checks["sharded.vs_monolithic"][FAIL] == 0


#: Reproducer fields of each replay axis, in the order they shrink.
AXIS_FIELDS = {
    "faults": ("fault_plan",),
    "churn": ("churn_timeline",),
    "overload": ("arrival_trace", "fault_plan"),
}


def _payload_size(name, doc):
    """Event counts (and horizon) of one serialized replay payload."""
    if name == "fault_plan":
        return tuple(len(doc[key]) for key in (
            "crashes", "flaps", "bursts",
        )) + tuple(doc["default_link"].values())
    if name == "churn_timeline":
        return (len(doc["events"]), doc["epochs"])
    return (len(doc["arrivals"]), doc["epochs"])


def _fresh_payloads(axis, index):
    """The payloads the fuzzer draws for ``(seed 0, index)`` on ``axis``."""
    from repro.resilience.epochs import ChurnTimeline
    from repro.resilience.faults import FaultPlan
    from repro.traffic.openloop import OpenLoopConfig, draw_arrival_trace

    registry = RngRegistry(0)
    scenario = generate_scenario(registry, index)
    nodes = scenario.network.nodes
    if axis == "faults":
        return {"fault_plan": FaultPlan.draw(
            registry.stream(("verify", index, "faults")), nodes=nodes)}
    if axis == "churn":
        return {"churn_timeline": ChurnTimeline.draw(
            registry.stream(("verify", index, "churn")),
            scenario.flow_ids, nodes, scenario.network.links())}
    return {
        "arrival_trace": draw_arrival_trace(
            registry.stream(("verify", index, "overload")),
            list(scenario.flow_ids), 10, OpenLoopConfig(rate=3.0)),
        "fault_plan": FaultPlan.draw(
            registry.stream(("verify", index, "overload-plan")),
            nodes=nodes, overload=True),
    }


def _load_payload(name, doc):
    from repro.resilience.epochs import ChurnTimeline
    from repro.resilience.faults import FaultPlan
    from repro.traffic.openloop import ArrivalTrace

    return {"fault_plan": FaultPlan, "churn_timeline": ChurnTimeline,
            "arrival_trace": ArrivalTrace}[name].from_dict(doc)


class _AxisFaultOnly(VerificationSuite):
    """Perturb allocations only on the replay axes, so the first failing
    check is the axis's own (the static suite stays clean)."""

    def run(self, scenario, committed=None):
        fault, self.fault = self.fault, None
        try:
            return super().run(scenario, committed)
        finally:
            self.fault = fault


@pytest.fixture
def axis_suite():
    """A suite whose only failures come from one replay axis."""

    def make(axis):
        return _AxisFaultOnly(fault=inject_share_fault, **{axis: True})

    return make


def _replay(axis, index, scenario, payloads):
    """Re-run one axis's campaign case from reproducer payloads, with the
    fuzzer's arguments and the injected fault; returns its check names
    that failed, relabelled to the axis prefix."""
    from repro.resilience.campaign import (
        run_chaos_case, run_churn_case, run_overload_case,
    )

    if axis == "faults":
        case = run_chaos_case(
            scenario, payloads["fault_plan"], RngRegistry(0),
            prefix=("verify", index, "faults", "channel"),
            fault=inject_share_fault,
        )
    elif axis == "churn":
        case = run_churn_case(
            scenario, payloads["churn_timeline"], seed=0, hysteresis=0.3,
            stream_prefix=("verify", index, "churn"),
            fault=inject_share_fault,
        )
    else:
        case = run_overload_case(
            scenario, payloads["arrival_trace"], seed=0,
            plan=payloads["fault_plan"], hysteresis=0.3, max_queue_age=4,
            stall_epochs=2, fault=inject_share_fault,
        )
    return {f"{axis}.{name.split('.', 1)[1]}"
            for name, ok, _details in case.checks if not ok}


class TestReplayAxes:
    @pytest.mark.parametrize("axis", sorted(AXIS_FIELDS))
    def test_failure_shrinks_payloads_into_reproducer(self, axis,
                                                      axis_suite, tmp_path):
        """An axis-only failure is shrunk along the scenario and every
        payload of its axis, and the reproducer carries exactly those
        payloads, each no bigger than a fresh draw for the case."""
        from repro.verify.fuzzer import _run_case, _write_reproducer

        _outcomes, failure, _committed = _run_case(0, 0, axis_suite(axis))
        assert failure is not None
        assert failure.check.startswith(axis + ".")
        doc = failure.to_dict()
        fresh = _fresh_payloads(axis, 0)
        for name in ("fault_plan", "churn_timeline", "arrival_trace"):
            if name not in AXIS_FIELDS[axis]:
                assert doc[name] is None
                continue
            payload = _load_payload(name, doc[name])
            assert payload.to_dict() == doc[name]
            drawn = _payload_size(name, fresh[name].to_dict())
            shrunk = _payload_size(name, doc[name])
            assert all(s <= d for s, d in zip(shrunk, drawn))
        path = _write_reproducer(str(tmp_path), 0, failure.case,
                                 failure.check, failure)
        written = json.loads(open(path).read())
        assert written["scenario"] == doc["shrunk"]
        for name in ("fault_plan", "churn_timeline", "arrival_trace"):
            assert written.get(name) == doc[name]

    @pytest.mark.parametrize("axis", sorted(AXIS_FIELDS))
    def test_failures_replay_from_reproducer_fields(self, axis, axis_suite):
        """The shrunk scenario and the shrunk payloads still fail the
        recorded check: the reproducer is self-contained."""
        from repro.verify.fuzzer import _run_case

        _outcomes, failure, _committed = _run_case(1, 0, axis_suite(axis))
        assert failure is not None
        doc = failure.to_dict()
        payloads = {name: _load_payload(name, doc[name])
                    for name in AXIS_FIELDS[axis]}
        failed = _replay(axis, 1, scenario_from_dict(failure.shrunk),
                         payloads)
        assert failure.check in failed


    def test_churn_fault_bites_after_every_flow_departs(self):
        """Verify case 2 of seed 0 ends its churn timeline with no flow
        active, after links and nodes changed since the last non-empty
        commit: the injected fault must still fail the final capacity
        check, re-checked on the topology that allocation committed
        under."""
        from repro.resilience import AllocatorRuntime, RuntimeConfig
        from repro.verify.fuzzer import AXES

        registry = RngRegistry(0)
        scenario = generate_scenario(registry, 2)
        (timeline,) = AXES["churn"].draw(registry, 2, scenario)
        runtime = AllocatorRuntime(scenario, RuntimeConfig(
            seed=0, hysteresis=0.3, stream_prefix=("verify", 2, "churn"),
        ))
        runtime.run_timeline(timeline)
        assert runtime.shares == {}
        failed = _replay("churn", 2, scenario, {"churn_timeline": timeline})
        assert "churn.final_clique_capacity" in failed


class TestBackendAxis:
    def test_revised_backend_clean_run(self):
        """Zero oracle disagreements with the revised backend driving
        every LP check across seeded fuzz cases."""
        report = run_fuzz(cases=8, seed=0, backend="revised")
        assert report.ok
        assert not report.failures
        assert report.backend == "revised"
        assert report.to_dict()["backend"] == "revised"

    def test_default_backend_unchanged(self):
        """The default (revised) run is untagged; the dense reference
        is named in the header."""
        report = run_fuzz(cases=2, seed=0)
        assert report.backend == "revised"
        assert "[backend" not in report.render()
        dense = run_fuzz(cases=2, seed=0, backend="simplex")
        assert "[backend simplex]" in dense.render()

    def test_backend_runs_agree_check_by_check(self):
        dense = run_fuzz(cases=5, seed=3, backend="simplex")
        revised = run_fuzz(cases=5, seed=3, backend="revised")
        assert dense.checks == revised.checks

    def test_reproducer_records_backend(self, tmp_path):
        report = run_fuzz(
            cases=3, seed=0, inject_fault=True, backend="revised",
            reproducer_dir=str(tmp_path),
        )
        assert report.failures
        doc = json.loads(
            open(report.failures[0].reproducer_path).read()
        )
        assert doc["backend"] == "revised"

    def test_run_lp_checks_is_the_lp_subset_of_run(self):
        scenario = generate_scenario(RngRegistry(0), 0)
        suite = VerificationSuite(backend="revised")
        lp_only = suite.run_lp_checks(scenario)
        assert [o.name for o in lp_only] == [
            "lp.clique_capacity",
            "lp.basic_fairness",
            "lp.float_vs_exact",
            "lp.allocation_total_optimal",
            "lp.maxmin_certificate",
            "maxmin.session",
        ]
        full = {o.name: o.status for o in suite.run(scenario)}
        for o in lp_only:
            assert o.status == full[o.name]

    def test_lp_failures_shrink_without_clique_reruns(self, monkeypatch):
        """Shrinking an lp.* failure must not re-run the exponential
        brute-force clique oracle on every candidate: exactly one call
        (the original failing case), zero during shrinking."""
        import repro.verify.fuzzer as fuzzer_mod

        calls = {"n": 0}
        real = fuzzer_mod.cliques_agree

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fuzzer_mod, "cliques_agree", counting)
        report = run_fuzz(cases=1, seed=0, inject_fault=True)
        assert report.failures
        assert report.failures[0].check.startswith("lp.")
        assert calls["n"] == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_is_reproducible(seed):
    a = run_fuzz(cases=4, seed=seed)
    b = run_fuzz(cases=4, seed=seed)
    assert a.to_dict() == b.to_dict()
