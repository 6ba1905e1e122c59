"""Tests for repro.resilience: faults, lossy channel, degradation, chaos."""

import math

import pytest

from repro import obs
from repro.core import ContentionAnalysis, DistributedAllocator
from repro.core.allocation import build_basic_fairness_lp
from repro.core.fairness_defs import basic_shares
from repro.obs import MetricsRegistry
from repro.resilience import (
    CONVERGED,
    CONVERGED_PARTIAL,
    TIMED_OUT,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    NodeCrash,
    ResilientLPBackend,
    UnreliableChannel,
    basic_share_feasible,
    enforce_clique_capacity,
    global_basic_shares,
    run_chaos,
    worst_status,
)
from repro.scenarios import (
    cross,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    grid_scenario,
    parallel_chains,
    star,
)
from repro.sim.rng import RngRegistry
from repro.verify.invariants import check_clique_capacity


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


def lossless_channel(prefix, seed=0, **kwargs):
    injector = FaultInjector(FaultPlan(), RngRegistry(seed), prefix=prefix)
    return UnreliableChannel(injector, **kwargs)


LIBRARY = {
    "fig1": fig1.make_scenario,
    "fig2_single": fig2.make_single_hop_scenario,
    "fig2_multi": fig2.make_multi_hop_scenario,
    "fig3_chain": fig3.make_chain_scenario,
    "fig3_shortcut": fig3.make_shortcut_scenario,
    "fig4": fig4.make_scenario,
    "fig5": fig5.make_scenario,
    "fig6": fig6.make_scenario,
    "parallel_chains": parallel_chains,
    "cross": cross,
    "grid": grid_scenario,
    "star": star,
}


class TestLosslessDifferential:
    """``channel=None`` and a lossless channel must agree bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_library_scenario_bitwise_identical(self, name):
        scenario = LIBRARY[name]()
        analysis = ContentionAnalysis(scenario)
        base = DistributedAllocator(scenario, analysis=analysis).run()
        channel = lossless_channel(("diff", name))
        lossy = DistributedAllocator(
            scenario, analysis=analysis, channel=channel
        ).run()
        assert lossy.shares == base.shares  # bitwise, not approx

    def test_lossless_channel_reports_converged(self):
        scenario = fig6.make_scenario()
        channel = lossless_channel(("diff", "fig6-status"))
        allocator = DistributedAllocator(scenario, channel=channel)
        allocator.run()
        conv = allocator.convergence
        assert conv["status"] == CONVERGED
        assert all(info["confirmed"] for info in conv["per_flow"].values())
        assert conv["channel"]["dropped"] == 0
        assert conv["channel"]["retransmits"] == 0


class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = FaultPlan.draw(
            RngRegistry(3).stream(("t", "plan")),
            nodes=["a", "b", "c", "d", "e"],
            loss=0.3,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()

    def test_default_plan_is_lossless(self):
        assert FaultPlan().lossless
        assert not FaultPlan(default_link=LinkFaults(drop=0.1)).lossless
        assert not FaultPlan(crashes=(NodeCrash("x", 0, None),)).lossless

    def test_shrink_candidates_simplify(self):
        plan = FaultPlan.draw(
            RngRegistry(1).stream(("t", "shrink")),
            nodes=["a", "b", "c", "d", "e", "f"],
            loss=0.3,
            crash_prob=1.0,
        )
        assert plan.crashes
        candidates = plan.shrink_candidates()
        assert candidates
        assert any(not c.crashes for c in candidates)

    def test_worst_status_ordering(self):
        assert worst_status([]) == CONVERGED
        assert worst_status([CONVERGED, CONVERGED_PARTIAL]) == (
            CONVERGED_PARTIAL
        )
        assert worst_status(
            [CONVERGED_PARTIAL, TIMED_OUT, CONVERGED]
        ) == TIMED_OUT


class TestFaultedRuns:
    def test_crashed_source_degrades_to_basic_share(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        flow1 = scenario.flows[0]
        plan = FaultPlan(crashes=(NodeCrash(flow1.source, 0, None),))
        channel = UnreliableChannel(
            FaultInjector(plan, RngRegistry(0), prefix=("t", "crash"))
        )
        allocator = DistributedAllocator(
            scenario, analysis=analysis, channel=channel
        )
        result = allocator.run()
        conv = allocator.convergence
        assert conv["status"] == CONVERGED_PARTIAL
        assert not conv["per_flow"][flow1.flow_id]["confirmed"]
        assert result.strategy == "distributed-degraded"
        basic = global_basic_shares(analysis)
        assert result.shares[flow1.flow_id] == pytest.approx(
            basic[flow1.flow_id]
        )
        assert check_clique_capacity(analysis, result.shares).ok

    def test_healed_rerun_restores_full_shares(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        flow1 = scenario.flows[0]
        plan = FaultPlan(crashes=(NodeCrash(flow1.source, 0, None),))
        channel = UnreliableChannel(
            FaultInjector(plan, RngRegistry(0), prefix=("t", "heal-f"))
        )
        degraded = DistributedAllocator(
            scenario, analysis=analysis, channel=channel
        ).run()
        healed = DistributedAllocator(
            scenario, analysis=analysis,
            channel=lossless_channel(("t", "heal-l")),
        ).run()
        base = DistributedAllocator(scenario, analysis=analysis).run()
        assert healed.shares == base.shares
        basic = global_basic_shares(analysis)
        for fid, share in healed.shares.items():
            assert share >= basic[fid] - 1e-9
            assert share >= degraded.shares[fid] - 1e-9

    def test_tiny_round_budget_times_out(self):
        scenario = fig1.make_scenario()
        channel = lossless_channel(("t", "timeout"), max_rounds=1)
        allocator = DistributedAllocator(scenario, channel=channel)
        result = allocator.run()  # must return, not raise
        assert allocator.convergence["status"] == TIMED_OUT
        assert result.strategy == "distributed-degraded"
        analysis = allocator.analysis
        assert check_clique_capacity(analysis, result.shares).ok

    def test_heavy_loss_is_survivable_and_safe(self):
        scenario = fig6.make_scenario()
        analysis = ContentionAnalysis(scenario)
        plan = FaultPlan(default_link=LinkFaults(drop=0.6, ack_drop=0.3))
        channel = UnreliableChannel(
            FaultInjector(plan, RngRegistry(5), prefix=("t", "loss"))
        )
        allocator = DistributedAllocator(
            scenario, analysis=analysis, channel=channel
        )
        result = allocator.run()
        assert allocator.convergence["status"] in (
            CONVERGED, CONVERGED_PARTIAL, TIMED_OUT
        )
        assert check_clique_capacity(analysis, result.shares).ok
        stats = allocator.convergence["channel"]
        assert stats["dropped"] > 0
        assert stats["retransmits"] > 0

    def test_channel_metrics_land_in_registry(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            scenario = fig1.make_scenario()
            DistributedAllocator(
                scenario, channel=lossless_channel(("t", "metrics"))
            ).run()
        finally:
            obs.set_registry(None)
        counters = registry.snapshot()["counters"]
        assert counters["2pad.messages"] > 0
        assert counters["resilience.channel.converged"] == 1


class TestCapacityGovernor:
    def test_overloaded_cliques_scaled_to_capacity(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        inflated = {f.flow_id: scenario.capacity for f in scenario.flows}
        safe, clamped = enforce_clique_capacity(analysis, inflated)
        assert clamped
        assert check_clique_capacity(analysis, safe).ok
        assert all(safe[fid] <= inflated[fid] for fid in inflated)

    def test_feasible_shares_untouched(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        shares = DistributedAllocator(scenario, analysis=analysis).run().shares
        safe, clamped = enforce_clique_capacity(analysis, shares)
        assert not clamped
        assert safe == shares  # bitwise: governor must be a no-op

    def test_basic_shares_survive_governor(self):
        scenario = fig6.make_scenario()
        analysis = ContentionAnalysis(scenario)
        basic = global_basic_shares(analysis)
        expected = {}
        for group in analysis.groups:
            expected.update(basic_shares(group, scenario.capacity))
        assert basic == expected
        _safe, clamped = enforce_clique_capacity(analysis, basic)
        assert not clamped  # paper: basic shares are jointly feasible

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_floor_aware_governor_never_erodes_floors(self, name):
        """With ``floors=`` the governor resolves an overload entirely
        on the flows above their Sec. II-D basic share: every clique
        ends within Eq. (6) and no flow lands below its floor."""
        scenario = LIBRARY[name]()
        analysis = ContentionAnalysis(scenario)
        floors = global_basic_shares(analysis)
        inflated = {f.flow_id: scenario.capacity for f in scenario.flows}
        safe, clamped = enforce_clique_capacity(
            analysis, inflated, floors=floors
        )
        # fig5's flows don't interfere at all: full capacity each is
        # already feasible and the governor must not touch it.
        assert clamped == (not check_clique_capacity(analysis,
                                                     inflated).ok)
        assert check_clique_capacity(analysis, safe).ok
        if basic_share_feasible(analysis.cliques, scenario.flows,
                                scenario.capacity):
            for fid, floor in floors.items():
                assert safe[fid] >= floor - 1e-9, (fid, safe[fid], floor)
        else:
            # fig3's shortcut: the floors alone overfill the clique, so
            # Eq. (6) wins and at least one flow is pushed below.
            assert any(safe[fid] < floor for fid, floor in floors.items())

    def test_floor_aware_governor_is_noop_on_feasible_shares(self):
        scenario = fig6.make_scenario()
        analysis = ContentionAnalysis(scenario)
        shares = DistributedAllocator(scenario, analysis=analysis).run().shares
        safe, clamped = enforce_clique_capacity(
            analysis, shares, floors=global_basic_shares(analysis)
        )
        assert not clamped
        assert safe == shares  # bitwise

    def test_infeasible_floors_sacrificed_for_safety(self):
        """When the floors alone overfill a clique (reachable only on
        pathological topologies), Eq. (6) wins: the governor scales
        everyone and counts the sacrifice."""
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        bogus_floors = {f.flow_id: scenario.capacity
                        for f in scenario.flows}
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            safe, clamped = enforce_clique_capacity(
                analysis, dict(bogus_floors), floors=bogus_floors
            )
        finally:
            obs.set_registry(None)
        assert clamped
        assert check_clique_capacity(analysis, safe).ok
        counters = registry.snapshot()["counters"]
        assert counters["resilience.degrade.floor_sacrificed"] >= 1

    def test_degraded_allocation_respects_floors(self):
        """The degradation ladder's governor pass is floor-aware: a
        partially-converged mixture never pushes a *confirmed* flow
        below its basic share."""
        scenario = fig6.make_scenario()
        analysis = ContentionAnalysis(scenario)
        flow1 = scenario.flows[0]
        plan = FaultPlan(crashes=(NodeCrash(flow1.source, 0, None),))
        channel = UnreliableChannel(
            FaultInjector(plan, RngRegistry(2), prefix=("t", "floor"))
        )
        allocator = DistributedAllocator(
            scenario, analysis=analysis, channel=channel
        )
        result = allocator.run()
        assert result.strategy == "distributed-degraded"
        floors = global_basic_shares(analysis)
        for fid, share in result.shares.items():
            assert share >= floors[fid] - 1e-9
        assert check_clique_capacity(analysis, result.shares).ok


class TestLPFallbackChain:
    def _lp(self):
        scenario = fig1.make_scenario()
        analysis = ContentionAnalysis(scenario)
        return build_basic_fairness_lp(
            analysis, analysis.groups[0], scenario.capacity
        )

    def test_warm_path_serves_by_default(self):
        backend = ResilientLPBackend()
        solution = backend(self._lp())
        assert solution.status == "optimal"
        assert backend.fallbacks == 0
        assert backend.served["warm"] == 1

    def test_forced_demotions_reach_exact_solver(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("float simplex disabled for test")

        monkeypatch.setattr("repro.perf.warm.solve_simplex", boom)
        monkeypatch.setattr("repro.resilience.degrade.solve_simplex", boom)
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            backend = ResilientLPBackend()
            solution = backend(self._lp())
        finally:
            obs.set_registry(None)
        assert solution.status == "optimal"
        assert all(math.isfinite(v) for v in solution.values.values())
        assert backend.fallbacks == 2
        assert backend.served == {"warm": 0, "cold": 0, "exact": 1}
        counters = registry.snapshot()["counters"]
        assert counters["resilience.lp.fallback"] == 2
        assert counters["resilience.lp.fallback.warm"] == 1
        assert counters["resilience.lp.fallback.cold"] == 1

    def test_whole_chain_failing_raises(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("no solver")

        monkeypatch.setattr("repro.perf.warm.solve_simplex", boom)
        monkeypatch.setattr("repro.resilience.degrade.solve_simplex", boom)
        monkeypatch.setattr(ResilientLPBackend, "_solve_exact",
                            staticmethod(boom))
        backend = ResilientLPBackend()
        with pytest.raises(RuntimeError, match="every LP backend stage"):
            backend(self._lp())

    def test_exact_matches_float_on_allocation(self, monkeypatch):
        scenario = fig6.make_scenario()
        analysis = ContentionAnalysis(scenario)
        base = DistributedAllocator(scenario, analysis=analysis).run()

        def boom(*_args, **_kwargs):
            raise RuntimeError("float simplex disabled for test")

        monkeypatch.setattr("repro.perf.warm.solve_simplex", boom)
        monkeypatch.setattr("repro.resilience.degrade.solve_simplex", boom)
        backend = ResilientLPBackend()
        exact = DistributedAllocator(
            scenario, backend=backend, analysis=analysis
        ).run()
        assert backend.served["exact"] > 0
        # The exact stage slackens borderline bounds by 1e-9 (same as the
        # float-vs-exact oracle), so agreement is to float tolerance, not
        # bitwise.
        for fid, share in base.shares.items():
            assert exact.shares[fid] == pytest.approx(share, abs=1e-7)


class TestPartialConvergenceRecord:
    def test_mid_flow_raise_leaves_partial_stats(self, monkeypatch):
        scenario = fig1.make_scenario()
        allocator = DistributedAllocator(scenario)
        allocator.build_local_views()
        def observe_raises(name, value):
            raise RuntimeError("exchange interrupted")

        # The observe() hook fires right after a flow's round count is
        # recorded, so raising on the first call interrupts the exchange
        # with exactly one flow's stats in place.
        monkeypatch.setattr(
            "repro.core.distributed.observe", observe_raises
        )
        with pytest.raises(RuntimeError):
            allocator.propagate_constraints()
        conv = allocator.convergence
        assert conv["status"] == "in-progress"
        first = scenario.flows[0].flow_id
        assert list(conv["rounds_per_flow"]) == [first]
        assert conv["max_rounds"] == conv["rounds_per_flow"][first]
        assert conv["total_messages"] > 0


class TestChaosCampaign:
    def test_small_campaign_holds_invariants(self):
        report = run_chaos(cases=4, seed=0, loss_rates=(0.0, 0.3))
        assert report.ok, [v.to_dict() for v in report.violations]
        assert sum(report.statuses.values()) == 8
        assert report.checks["chaos.clique_capacity"]["fail"] == 0
        rendered = report.render()
        assert "all safety invariants held" in rendered

    def test_injected_fault_is_caught(self):
        report = run_chaos(
            cases=2, seed=0, loss_rates=(0.1,), inject_fault=True,
            max_violations=2,
        )
        assert not report.ok
        assert any(
            v.check == "chaos.clique_capacity" for v in report.violations
        )
        # Violations carry everything needed to replay.
        v = report.violations[0]
        assert v.scenario["flows"]
        plan = v.replay["fault_plan"]
        assert FaultPlan.from_dict(plan).to_dict() == plan

    def test_report_round_trips_to_dict(self):
        report = run_chaos(cases=2, seed=1, loss_rates=(0.0,))
        doc = report.to_dict()
        assert doc["ok"] is report.ok
        assert doc["cases"] == 2
        assert set(doc["checks"]) == set(report.checks)


class TestFuzzerFaultsMode:
    def test_faults_mode_adds_safety_checks(self):
        from repro.verify.fuzzer import run_fuzz

        report = run_fuzz(cases=3, seed=0, faults=True)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.checks["faults.no_raise"]["pass"] == 3
        assert report.checks["faults.clique_capacity"]["pass"] == 3
