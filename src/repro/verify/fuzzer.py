"""Seeded scenario fuzzer: generate → check → shrink → serialize.

Drives the whole verification layer on *arbitrary* topologies.  Each case
draws a random connected network and shortest-path flow set from a
dedicated :class:`~repro.sim.rng.RngRegistry` stream (so case ``i`` of
master seed ``s`` is reproducible forever and independent of every other
case), runs every differential oracle and paper invariant from
:mod:`repro.verify.oracles` / :mod:`repro.verify.invariants`, and — on a
failure — *shrinks* the scenario (dropping flows, then unused nodes,
while the same check keeps failing) down to a minimal reproducer that is
serialized through :mod:`repro.scenarios.io` with the originating seed.

The ``repro-experiments verify`` CLI subcommand and the test suite both
run exactly this code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.allocation import (
    basic_allocation,
    basic_fairness_lp_allocation,
    build_basic_fairness_lp,
    fairness_constrained_allocation,
)
from ..core.bounds import bound_vs_basic_consistency
from ..core.contention import ContentionAnalysis
from ..core.distributed import DistributedAllocator
from ..core.model import Network, Scenario
from ..obs.registry import incr, phase_timer
from ..scenarios.io import scenario_to_dict
from ..scenarios.random_topology import (
    random_connected_network,
    random_flows,
)
from ..sim.rng import RngRegistry
from .invariants import (
    check_basic_fairness,
    check_clique_capacity,
    check_fairness_constraint,
    check_prop1_bound,
    check_virtual_length_consistency,
)
from .oracles import (
    BruteForceLimit,
    check_2pad_against_centralized,
    cliques_agree,
    cold_journal_mismatches,
    lp_objective_matches,
    maxmin_certificate_mismatches,
)

__all__ = [
    "CheckOutcome",
    "FuzzFailure",
    "FuzzReport",
    "VerificationSuite",
    "generate_scenario",
    "inject_share_fault",
    "run_fuzz",
    "shrink_scenario",
]

PASS, FAIL, SKIP = "pass", "fail", "skip"

#: Default exhaustive-clique-enumeration cap for fuzzing (see oracles).
FUZZ_BRUTE_FORCE_MAX_VERTICES = 16

LP_TOL = 1e-6


@dataclass(frozen=True)
class CheckOutcome:
    """One check on one scenario: named, tri-state, with diagnostics."""

    name: str
    status: str  # pass | fail | skip
    details: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def inject_share_fault(shares: Dict[str, float],
                       capacity: float) -> Dict[str, float]:
    """The canonical injected fault: inflate one flow's share past B.

    Bumping the lexicographically-first flow by ``B/2`` always breaks at
    least one clique-capacity constraint of a throughput-optimal
    allocation (every flow sits in some tight clique at the LP optimum),
    so a healthy checker must flag it.
    """
    faulted = dict(shares)
    victim = min(faulted)
    faulted[victim] += 0.5 * capacity
    return faulted


class VerificationSuite:
    """Runs every oracle + invariant against one scenario.

    ``fault`` optionally post-processes the phase-1 LP allocation before
    its invariants are checked — the hook used to prove the harness
    actually catches bad allocations (``repro verify --inject-fault``).
    """

    def __init__(
        self,
        brute_force_max_vertices: int = FUZZ_BRUTE_FORCE_MAX_VERTICES,
        lp_tol: float = LP_TOL,
        with_scipy: bool = False,
        fault: Optional[Callable[[Dict[str, float], float],
                                 Dict[str, float]]] = None,
        faults: bool = False,
        churn: bool = False,
        backend: str = "simplex",
        sharded: bool = False,
        overload: bool = False,
    ) -> None:
        self.brute_force_max_vertices = brute_force_max_vertices
        self.lp_tol = lp_tol
        self.with_scipy = with_scipy
        self.fault = fault
        #: Also run each case under a random fault plan (lossy 2PA-D with
        #: the resilience safety invariants) — ``repro verify --faults``.
        self.faults = faults
        #: Also run each case through the long-lived runtime under a
        #: seeded churn timeline — ``repro verify --churn``.
        self.churn = churn
        #: Also run the component-sharded differential axis — the
        #: :class:`~repro.perf.shard.ShardedSolver` at jobs=1 and jobs>1
        #: against the monolithic LP, plus an :class:`AllocatorRuntime`
        #: journal against a cold monolithic solve of every epoch —
        #: ``repro verify --sharded``.  Every comparison is bitwise
        #: (``==`` on floats): sharding is exact.
        self.sharded = sharded
        #: Also run each case through the overload-protected runtime
        #: under an open-loop heavy-traffic arrival trace with forced
        #: deadline stalls and an adversarial fault plan (arrival
        #: bursts; worker faults ride along in the reproducer) —
        #: ``repro verify --overload``.
        self.overload = overload
        #: Float LP solver under test (``repro verify --backend``): every
        #: allocation the suite checks and the float side of the
        #: ``lp.float_vs_exact`` oracle run on this backend.
        self.backend = backend

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> List[CheckOutcome]:
        """All checks on ``scenario``; never raises on check failure."""
        out: List[CheckOutcome] = []
        analysis = ContentionAnalysis(scenario)
        b = scenario.capacity

        # Differential oracle: Bron–Kerbosch vs exhaustive enumeration.
        with phase_timer("verify.cliques"):
            try:
                ok = cliques_agree(
                    analysis.graph, self.brute_force_max_vertices
                )
                out.append(CheckOutcome(
                    "cliques.brute_force", PASS if ok else FAIL,
                    "" if ok else "Bron–Kerbosch != brute-force enumeration",
                ))
            except BruteForceLimit as exc:
                out.append(CheckOutcome("cliques.brute_force", SKIP,
                                        str(exc)))

        # Structural invariants of the contention analysis.
        res = check_virtual_length_consistency(scenario, analysis)
        out.append(CheckOutcome(
            "invariants.virtual_length", PASS if res.ok else FAIL,
            res.details,
        ))
        ok = bound_vs_basic_consistency(analysis)
        out.append(CheckOutcome(
            "invariants.omega_le_basic_denom", PASS if ok else FAIL,
            "" if ok else "ω_Ω > Σ w_i v_i",
        ))

        # Basic allocation: proportional, feasible, below the Prop.1 bound.
        with phase_timer("verify.allocations"):
            basic = basic_allocation(analysis)
            out.extend(self._allocation_checks(
                "basic", analysis, basic.shares, b,
                fairness=True, prop1=True, basic_fair=True,
            ))

            # Fairness-constrained (Prop. 1) allocation: the bound itself.
            prop1 = fairness_constrained_allocation(analysis)
            out.extend(self._allocation_checks(
                "prop1", analysis, prop1.shares, b,
                fairness=True, prop1=True, basic_fair=False,
            ))

            # Phase-1 LP (2PA-C) allocation, optionally faulted.
            lp_alloc = basic_fairness_lp_allocation(
                analysis, backend=self.backend
            )
            lp_shares = dict(lp_alloc.shares)
            if self.fault is not None:
                lp_shares = self.fault(lp_shares, b)
            out.extend(self._allocation_checks(
                "lp", analysis, lp_shares, b,
                fairness=False, prop1=False, basic_fair=True,
            ))

        # Differential oracle: float simplex vs exact Fraction reference,
        # per contending flow group, plus total-objective agreement.
        with phase_timer("verify.exact_lp"):
            out.extend(self._lp_oracle_checks(analysis, lp_shares, b))

        # Differential oracle: 2PA-D against 2PA-C.
        with phase_timer("verify.2pad"):
            try:
                report = check_2pad_against_centralized(
                    scenario, lp_alloc.shares, analysis=analysis,
                    tol=self.lp_tol,
                )
                out.append(CheckOutcome(
                    "2pad.vs_centralized", PASS if report["ok"] else FAIL,
                    "; ".join(report["mismatches"][:3]),
                ))
            except Exception as exc:  # a crash in 2PA-D is a finding too
                out.append(CheckOutcome(
                    "2pad.vs_centralized", FAIL,
                    f"{type(exc).__name__}: {exc}",
                ))

        if self.sharded:
            out.extend(self._sharded_checks(
                scenario, analysis, dict(lp_alloc.shares)
            ))
        return out

    # ------------------------------------------------------------------
    def _sharded_checks(
        self,
        scenario: Scenario,
        analysis: ContentionAnalysis,
        lp_shares: Dict[str, float],
    ) -> List[CheckOutcome]:
        """Differential checks of the component-sharded solve path.

        The monolithic phase-1 LP allocation (``lp_shares``, before any
        injected fault) is the bitwise reference: flows in different
        components share no clique, so the sharded solve is exact and
        every comparison here is plain ``==`` on floats, no tolerance.
        The runtime check replays a short arrival/departure timeline
        and compares every committed epoch with a cold monolithic solve
        of its active flows.
        """
        from ..perf.shard import ShardedSolver

        out: List[CheckOutcome] = []
        with phase_timer("verify.sharded"):
            for name, jobs in (("sharded.vs_monolithic", 1),
                               ("sharded.parallel_jobs", 2)):
                try:
                    shares = ShardedSolver(
                        backend=self.backend, jobs=jobs
                    ).solve(analysis)
                    ok = shares == lp_shares
                    details = "" if ok else "; ".join(
                        f"{fid}: sharded {shares.get(fid)!r} != "
                        f"monolithic {lp_shares.get(fid)!r}"
                        for fid in sorted(set(shares) | set(lp_shares))
                        if shares.get(fid) != lp_shares.get(fid)
                    )[:400]
                except Exception as exc:
                    ok = False
                    details = f"{type(exc).__name__}: {exc}"
                out.append(CheckOutcome(name, PASS if ok else FAIL,
                                        details))
            out.append(self._sharded_runtime_check(scenario))
        return out

    def _sharded_runtime_check(self, scenario: Scenario) -> CheckOutcome:
        """The runtime journal against a cold monolithic solve per epoch."""
        from ..resilience.runtime import AllocatorRuntime

        try:
            rt = AllocatorRuntime(scenario)
            ids = [f.flow_id for f in scenario.flows]
            rt.set_active(ids)        # everything arrives
            rt.set_active(ids[1:])    # one departure dirties a component
            rt.set_active(ids)        # re-arrival: memo must still agree
            mismatches = cold_journal_mismatches(scenario, rt.journal)
            ok = not mismatches
            details = "; ".join(mismatches)[:400]
        except Exception as exc:
            ok = False
            details = f"{type(exc).__name__}: {exc}"
        return CheckOutcome("sharded.runtime_centralized",
                            PASS if ok else FAIL, details)

    # ------------------------------------------------------------------
    def run_lp_checks(self, scenario: Scenario) -> List[CheckOutcome]:
        """Only the ``lp.*`` checks of :meth:`run` (same names/verdicts).

        The shrinker uses this as a fast path when the original failure
        is an LP check: re-proving an ``lp.*`` failure on a candidate
        scenario does not require re-running the exponential brute-force
        clique oracle or the 2PA-D differential, and skipping them keeps
        every shrink step cheap.  The checks it does run are produced by
        the same code as :meth:`run`, so a candidate fails here iff it
        fails there.
        """
        out: List[CheckOutcome] = []
        analysis = ContentionAnalysis(scenario)
        b = scenario.capacity
        with phase_timer("verify.allocations"):
            lp_alloc = basic_fairness_lp_allocation(
                analysis, backend=self.backend
            )
            lp_shares = dict(lp_alloc.shares)
            if self.fault is not None:
                lp_shares = self.fault(lp_shares, b)
            out.extend(self._allocation_checks(
                "lp", analysis, lp_shares, b,
                fairness=False, prop1=False, basic_fair=True,
            ))
        with phase_timer("verify.exact_lp"):
            out.extend(self._lp_oracle_checks(analysis, lp_shares, b))
        return out

    # ------------------------------------------------------------------
    def fault_outcomes(
        self,
        scenario: Scenario,
        plan,
        seed: int,
        index: int,
    ) -> List[CheckOutcome]:
        """Run ``scenario`` under ``plan`` and check the safety invariants.

        The lossy 2PA-D run (retry/backoff channel, degradation ladder)
        comes from :func:`repro.resilience.campaign.run_chaos_case`; its
        ``chaos.*`` checks are re-labelled ``faults.*`` here so the fuzz
        report separates them from the fault-free differential oracles.
        A fresh registry is built per call so the channel's fault streams
        are a pure function of ``(seed, index)`` — shrinking re-runs make
        byte-identical per-link decisions.
        """
        from ..resilience.campaign import run_chaos_case

        registry = RngRegistry(seed)
        with phase_timer("verify.faults"):
            case = run_chaos_case(
                scenario, plan, registry,
                prefix=("verify", index, "faults", "channel"),
            )
        return [
            CheckOutcome(
                name.replace("chaos.", "faults.", 1),
                PASS if ok else FAIL,
                details,
            )
            for name, ok, details in case.checks
        ]

    # ------------------------------------------------------------------
    def churn_outcomes(
        self,
        scenario: Scenario,
        timeline,
        seed: int,
        index: int,
    ) -> List[CheckOutcome]:
        """Run ``scenario`` through ``timeline`` on the long-lived runtime.

        Reuses :func:`repro.resilience.campaign.run_churn_case` — epoch
        pipeline, admission control, per-epoch invariant records, and
        the mid-timeline crash + restore differential.  All randomness
        is a pure function of ``(seed, index)`` via the runtime's stream
        prefix, so shrinking re-runs replay byte-identical epochs.
        """
        from ..resilience.campaign import run_churn_case

        with phase_timer("verify.churn"):
            case = run_churn_case(
                scenario, timeline,
                seed=seed,
                hysteresis=0.3,
                stream_prefix=("verify", index, "churn"),
                fault=self.fault,
            )
        return [
            CheckOutcome(name, PASS if ok else FAIL, details)
            for name, ok, details in case.checks
        ]

    # ------------------------------------------------------------------
    def overload_outcomes(
        self,
        scenario: Scenario,
        trace,
        plan,
        seed: int,
        index: int,
    ) -> List[CheckOutcome]:
        """Run ``scenario`` under open-loop overload with forced stalls.

        Reuses :func:`repro.resilience.campaign.run_overload_case` —
        deadline-bounded epochs, the graduated shedding ladder, bounded
        admission queue with age eviction — at ``jobs=1`` (worker faults
        in ``plan`` are inert in-process; its arrival bursts are live).
        Two early epochs run with an already-expired watchdog so the
        breach path and the ``overload.breach_recorded`` pairing
        invariant are exercised on *every* case, deterministically — no
        wall-clock dependence.
        """
        from ..resilience.campaign import run_overload_case

        with phase_timer("verify.overload"):
            case = run_overload_case(
                scenario, trace,
                seed=seed,
                plan=plan,
                hysteresis=0.3,
                max_queue_age=4,
                stall_epochs=2,
                fault=self.fault,
            )
        return [
            CheckOutcome(name, PASS if ok else FAIL, details)
            for name, ok, details in case.checks
        ]

    # ------------------------------------------------------------------
    def _allocation_checks(
        self,
        label: str,
        analysis: ContentionAnalysis,
        shares: Dict[str, float],
        capacity: float,
        fairness: bool,
        prop1: bool,
        basic_fair: bool,
    ) -> List[CheckOutcome]:
        out: List[CheckOutcome] = []
        res = check_clique_capacity(analysis, shares, capacity,
                                    tol=self.lp_tol)
        out.append(CheckOutcome(f"{label}.clique_capacity",
                                PASS if res.ok else FAIL, res.details))
        if basic_fair:
            res = check_basic_fairness(analysis, shares, capacity)
            out.append(CheckOutcome(f"{label}.basic_fairness",
                                    PASS if res.ok else FAIL, res.details))
        if fairness:
            res = check_fairness_constraint(analysis, shares)
            out.append(CheckOutcome(f"{label}.fairness_constraint",
                                    PASS if res.ok else FAIL, res.details))
        if prop1:
            res = check_prop1_bound(analysis, shares, capacity)
            out.append(CheckOutcome(f"{label}.prop1_bound",
                                    PASS if res.ok else FAIL, res.details))
        return out

    def _lp_oracle_checks(
        self,
        analysis: ContentionAnalysis,
        lp_shares: Dict[str, float],
        capacity: float,
    ) -> List[CheckOutcome]:
        out: List[CheckOutcome] = []
        diff_ok, total_ok = True, True
        details_diff, details_total = [], []
        for group in analysis.groups:
            lp = build_basic_fairness_lp(analysis, group, capacity)
            report = lp_objective_matches(lp, tol=self.lp_tol,
                                          with_scipy=self.with_scipy,
                                          backend=self.backend)
            if not report["ok"]:
                diff_ok = False
                details_diff.append(
                    f"group [{','.join(f.flow_id for f in group)}]: "
                    f"{report}"
                )
                continue
            exact_obj = report.get("exact_objective")
            if exact_obj is not None:
                total = sum(lp_shares.get(f.flow_id, 0.0) for f in group)
                if abs(total - exact_obj) > self.lp_tol:
                    total_ok = False
                    details_total.append(
                        f"group [{','.join(f.flow_id for f in group)}]: "
                        f"allocated total {total:.9g} != exact optimum "
                        f"{exact_obj:.9g}"
                    )
        out.append(CheckOutcome(
            "lp.float_vs_exact", PASS if diff_ok else FAIL,
            "; ".join(details_diff),
        ))
        out.append(CheckOutcome(
            "lp.allocation_total_optimal", PASS if total_ok else FAIL,
            "; ".join(details_total),
        ))
        out.append(self._maxmin_certificate_check(analysis, capacity))
        return out


    def _maxmin_certificate_check(
        self, analysis: ContentionAnalysis, capacity: float
    ) -> CheckOutcome:
        """The dual saturation certificate against probing every flow,
        on every contending group's max-min ladder."""
        details: List[str] = []
        for group in analysis.groups:
            lp = build_basic_fairness_lp(analysis, group, capacity)
            weights = {f"r_{f.flow_id}": f.weight for f in group}
            details.extend(
                f"group [{','.join(f.flow_id for f in group)}] {line}"
                for line in maxmin_certificate_mismatches(lp, weights,
                                                          self.backend)
            )
        return CheckOutcome(
            "lp.maxmin_certificate", FAIL if details else PASS,
            "; ".join(details)[:400],
        )


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------

def generate_scenario(registry: RngRegistry, index: int) -> Scenario:
    """Case ``index`` of the registry's master seed.

    All randomness flows through the ``("verify", index)`` stream, so
    adding cases never perturbs earlier ones and any case regenerates
    from ``(master_seed, index)`` alone.
    """
    stream = registry.stream(("verify", index))
    for _ in range(25):
        num_nodes = int(stream.integers(6, 13))
        num_flows = int(stream.integers(2, 5))
        topo_seed = int(stream.integers(0, 2**31 - 1))
        flow_seed = int(stream.integers(0, 2**31 - 1))
        weights = ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0])[
            int(stream.integers(0, 3))
        ]
        max_hops = (None, 3, 4)[int(stream.integers(0, 3))]
        try:
            network = random_connected_network(num_nodes, seed=topo_seed)
            flows = random_flows(
                network, num_flows, seed=flow_seed,
                max_hops=max_hops, weights=list(weights),
            )
        except RuntimeError:
            continue  # unconnectable/unroutable draw; redraw from stream
        return Scenario(
            network, flows,
            name=f"verify-s{registry.master_seed}-c{index}",
            capacity=1.0,
        )
    raise RuntimeError(
        f"could not generate case {index} for seed {registry.master_seed}"
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _drop_flow(scenario: Scenario, flow_id: str) -> Optional[Scenario]:
    flows = [f for f in scenario.flows if f.flow_id != flow_id]
    if not flows:
        return None
    return Scenario(scenario.network, flows, name=scenario.name,
                    capacity=scenario.capacity)


def _drop_node(scenario: Scenario, node: str) -> Optional[Scenario]:
    net = scenario.network
    if any(node in f.path for f in scenario.flows):
        return None
    if net.explicit_links is not None:
        nodes = [n for n in net.positions if n != node]
        links = [tuple(l) for l in net.explicit_links if node not in l]
        shrunk = Network.from_links(nodes, links)
    else:
        positions = {n: p for n, p in net.positions.items() if n != node}
        shrunk = Network.from_positions(positions, net.tx_range)
    return Scenario(shrunk, list(scenario.flows), name=scenario.name,
                    capacity=scenario.capacity)


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
) -> Scenario:
    """Greedy shrink: drop flows, then unused nodes, while still failing.

    ``still_fails`` must return True when the candidate scenario still
    exhibits the original failure; candidates that crash it are rejected
    so the reproducer stays faithful to the original symptom.
    """
    def fails(candidate: Scenario) -> bool:
        try:
            return still_fails(candidate)
        except Exception:
            return False

    current = scenario
    progress = True
    while progress:
        progress = False
        for flow in list(current.flows):
            candidate = _drop_flow(current, flow.flow_id)
            if candidate is not None and fails(candidate):
                current = candidate
                progress = True
                break
        if progress:
            continue
        used = {n for f in current.flows for n in f.path}
        for node in current.network.nodes:
            if node in used:
                continue
            candidate = _drop_node(current, node)
            if candidate is not None and fails(candidate):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# Fuzz driver
# ----------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """One failing case, with its shrunk reproducer."""

    case: int
    check: str
    details: str
    scenario: Dict[str, object]          # original (serialized)
    shrunk: Dict[str, object]            # minimal reproducer (serialized)
    reproducer_path: Optional[str] = None
    #: Serialized (shrunk) fault plan for ``faults.*`` failures (also
    #: carries the shrunk overload plan for ``overload.*`` failures).
    fault_plan: Optional[Dict[str, object]] = None
    #: Serialized (shrunk) churn timeline for ``churn.*`` failures.
    churn_timeline: Optional[Dict[str, object]] = None
    #: Serialized (shrunk) arrival trace for ``overload.*`` failures.
    arrival_trace: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            "shrunk": self.shrunk,
            "reproducer_path": self.reproducer_path,
            "fault_plan": self.fault_plan,
            "churn_timeline": self.churn_timeline,
            "arrival_trace": self.arrival_trace,
        }


@dataclass
class FuzzReport:
    """Aggregate of one fuzzing run, renderable and artifact-ready."""

    cases: int
    seed: int
    inject_fault: bool
    backend: str = "simplex"
    sharded: bool = False
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Healthy run: no failures — unless a fault was injected, in
        which case the harness is healthy only if it *caught* something."""
        if self.inject_fault:
            return bool(self.failures)
        return not self.failures

    def tally(self, outcome: CheckOutcome) -> None:
        row = self.checks.setdefault(
            outcome.name, {PASS: 0, FAIL: 0, SKIP: 0}
        )
        row[outcome.status] += 1
        incr(f"verify.{outcome.name}.{outcome.status}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "inject_fault": self.inject_fault,
            "backend": self.backend,
            "sharded": self.sharded,
            "ok": self.ok,
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "failures": [f.to_dict() for f in self.failures],
        }

    def render(self) -> str:
        lines = [
            f"repro verify: {self.cases} case(s), seed {self.seed}"
            + (f" [backend {self.backend}]"
               if self.backend != "simplex" else "")
            + (" [sharded]" if self.sharded else "")
            + (" [fault injected]" if self.inject_fault else ""),
            "",
            f"  {'check':<34} {'pass':>6} {'fail':>6} {'skip':>6}",
        ]
        for name in sorted(self.checks):
            row = self.checks[name]
            lines.append(
                f"  {name:<34} {row[PASS]:>6} {row[FAIL]:>6} {row[SKIP]:>6}"
            )
        lines.append("")
        if self.failures:
            lines.append(f"{len(self.failures)} failure(s):")
            for f in self.failures:
                where = f" -> {f.reproducer_path}" if f.reproducer_path \
                    else ""
                shrunk_flows = len(f.shrunk.get("flows", []))
                lines.append(
                    f"  case {f.case}: {f.check} "
                    f"(shrunk to {shrunk_flows} flow(s)){where}"
                )
                if f.details:
                    lines.append(f"    {f.details}")
        else:
            lines.append("all checks passed")
        return "\n".join(lines)


def _run_case(
    index: int,
    seed: int,
    suite: VerificationSuite,
) -> Tuple[List[CheckOutcome], Optional[FuzzFailure]]:
    """Generate, check, and (on failure) shrink case ``index`` of ``seed``.

    Self-contained and deterministic: all randomness comes from the
    ``("verify", index)`` stream of a fresh registry, so the result is a
    pure function of ``(seed, index, suite config)`` — which is what lets
    :func:`run_fuzz` fan cases across worker processes and still merge a
    bit-identical report.
    """
    registry = RngRegistry(seed)
    with phase_timer("verify.case"):
        scenario = generate_scenario(registry, index)
        outcomes = suite.run(scenario)
        plan = None
        if suite.faults:
            from ..resilience.faults import FaultPlan

            plan = FaultPlan.draw(
                registry.stream(("verify", index, "faults")),
                nodes=scenario.network.nodes,
            )
            outcomes = outcomes + suite.fault_outcomes(
                scenario, plan, seed, index
            )
        timeline = None
        if suite.churn:
            from ..resilience.epochs import ChurnTimeline

            timeline = ChurnTimeline.draw(
                registry.stream(("verify", index, "churn")),
                scenario.flow_ids,
                scenario.network.nodes,
                scenario.network.links(),
            )
            outcomes = outcomes + suite.churn_outcomes(
                scenario, timeline, seed, index
            )
        trace = None
        overload_plan = None
        if suite.overload:
            from ..resilience.faults import FaultPlan
            from ..traffic.openloop import (
                OpenLoopConfig, draw_arrival_trace,
            )

            trace = draw_arrival_trace(
                registry.stream(("verify", index, "overload")),
                list(scenario.flow_ids), 10,
                OpenLoopConfig(rate=3.0),
            )
            overload_plan = FaultPlan.draw(
                registry.stream(("verify", index, "overload-plan")),
                nodes=scenario.network.nodes,
                overload=True,
            )
            outcomes = outcomes + suite.overload_outcomes(
                scenario, trace, overload_plan, seed, index
            )
    incr("verify.cases")
    failed = [o for o in outcomes if o.failed]
    if not failed:
        return outcomes, None
    first = failed[0]
    faults_check = first.name.startswith("faults.")
    churn_check = first.name.startswith("churn.")
    overload_check = first.name.startswith("overload.")
    lp_check = first.name.startswith("lp.")

    def fails_with(candidate: Scenario, candidate_plan,
                   candidate_timeline, candidate_trace=None,
                   candidate_overload_plan=None) -> bool:
        if faults_check:
            outs = suite.fault_outcomes(
                candidate, candidate_plan, seed, index
            )
        elif churn_check:
            outs = suite.churn_outcomes(
                candidate, candidate_timeline, seed, index
            )
        elif overload_check:
            outs = suite.overload_outcomes(
                candidate,
                candidate_trace if candidate_trace is not None else trace,
                candidate_overload_plan
                if candidate_overload_plan is not None else overload_plan,
                seed, index,
            )
        elif lp_check:
            # LP-only failures shrink against the LP checks alone — no
            # brute-force clique enumeration per candidate.
            outs = suite.run_lp_checks(candidate)
        else:
            outs = suite.run(candidate)
        return any(o.name == first.name and o.failed for o in outs)

    def still_fails(candidate: Scenario) -> bool:
        return fails_with(candidate, plan, timeline)

    with phase_timer("verify.shrink"):
        minimal = shrink_scenario(scenario, still_fails)
        if faults_check and plan is not None:
            # Then shrink the fault plan itself (drop crash/flap events,
            # zero rates) while the same check keeps failing.
            progress = True
            while progress:
                progress = False
                for candidate_plan in plan.shrink_candidates():
                    try:
                        if fails_with(minimal, candidate_plan, timeline):
                            plan = candidate_plan
                            progress = True
                            break
                    except Exception:
                        continue
        if churn_check and timeline is not None:
            # Shrink the timeline (drop events, truncate the horizon)
            # while the same check keeps failing.  Events referencing
            # entities the shrunk scenario lost are skipped (and
            # counted) by the runtime, so every candidate is well
            # defined.
            progress = True
            while progress:
                progress = False
                for candidate_timeline in timeline.shrink_candidates():
                    try:
                        if fails_with(minimal, plan, candidate_timeline):
                            timeline = candidate_timeline
                            progress = True
                            break
                    except Exception:
                        continue
        if overload_check and trace is not None:
            # Shrink the arrival trace first (drop arrivals, truncate
            # the horizon), then the fault plan (drop bursts and worker
            # faults), while the same check keeps failing.
            progress = True
            while progress:
                progress = False
                for candidate_trace in trace.shrink_candidates():
                    try:
                        if fails_with(minimal, plan, timeline,
                                      candidate_trace=candidate_trace):
                            trace = candidate_trace
                            progress = True
                            break
                    except Exception:
                        continue
            if overload_plan is not None:
                progress = True
                while progress:
                    progress = False
                    for cand in overload_plan.shrink_candidates():
                        try:
                            if fails_with(
                                minimal, plan, timeline,
                                candidate_overload_plan=cand,
                            ):
                                overload_plan = cand
                                progress = True
                                break
                        except Exception:
                            continue
    if faults_check and plan is not None:
        plan_doc = plan.to_dict()
    elif overload_check and overload_plan is not None:
        plan_doc = overload_plan.to_dict()
    else:
        plan_doc = None
    failure = FuzzFailure(
        case=index,
        check=first.name,
        details=first.details,
        scenario=scenario_to_dict(scenario),
        shrunk=scenario_to_dict(minimal),
        fault_plan=plan_doc,
        churn_timeline=timeline.to_dict()
        if churn_check and timeline is not None else None,
        arrival_trace=trace.to_dict()
        if overload_check and trace is not None else None,
    )
    return outcomes, failure


def _run_case_task(payload: Tuple[int, int, VerificationSuite]):
    """Picklable single-argument adapter for :class:`ParallelSweep`."""
    index, seed, suite = payload
    return _run_case(index, seed, suite)


def run_fuzz(
    cases: int = 50,
    seed: int = 0,
    inject_fault: bool = False,
    reproducer_dir: Optional[str] = None,
    brute_force_max_vertices: int = FUZZ_BRUTE_FORCE_MAX_VERTICES,
    with_scipy: bool = False,
    max_failures: int = 5,
    jobs: int = 1,
    faults: bool = False,
    churn: bool = False,
    backend: str = "simplex",
    sharded: bool = False,
    overload: bool = False,
) -> FuzzReport:
    """Run ``cases`` seeded scenarios through the verification suite.

    On a failing check the scenario is shrunk to a minimal reproducer; if
    ``reproducer_dir`` is given, the reproducer (scenario + seed + check
    name) is written there as JSON.  After ``max_failures`` distinct
    failures the run stops early — a systemic bug does not need 200
    identical shrink sessions.

    ``jobs > 1`` fans the cases across worker processes
    (:class:`repro.perf.parallel.ParallelSweep`); results are merged in
    case order and the early-stop tally is applied at merge time, so the
    report is bit-identical to the serial run.  ``jobs=0`` uses all
    cores.  Reproducer files are always written from this process.

    ``faults=True`` additionally runs every case through lossy 2PA-D
    under a fault plan drawn from stream ``("verify", i, "faults")`` and
    asserts the resilience safety invariants (``faults.*`` checks); a
    failing case's fault plan is shrunk alongside the scenario and lands
    in the reproducer.

    ``churn=True`` additionally runs every case through the long-lived
    allocator runtime under a churn timeline drawn from stream
    ``("verify", i, "churn")`` and asserts the churn safety invariants
    (``churn.*`` checks, including the crash + restore differential); a
    failing case's timeline is shrunk alongside the scenario and lands
    in the reproducer under ``churn_timeline``.

    ``backend`` selects the float LP solver under test (``"simplex"``
    or ``"revised"``); reproducers record it so a failure found on one
    backend is replayed against the same backend.

    ``sharded=True`` additionally runs the component-sharded
    differential axis per case — :class:`~repro.perf.shard.ShardedSolver`
    at jobs=1 and jobs=2 against the monolithic LP allocation, and a
    centralized runtime journal against a cold monolithic solve of each
    epoch — asserting bitwise identity throughout (``sharded.*``
    checks).

    ``overload=True`` additionally drives every case through the
    overload-protected runtime under an open-loop arrival trace from
    stream ``("verify", i, "overload")`` and a fault plan (arrival
    bursts, worker faults) from ``("verify", i, "overload-plan")``, with
    two forced deadline stalls per case so the breach machinery is
    always exercised (``overload.*`` checks, including the
    no-breach-without-staleness-record pairing).  On failure the arrival
    trace is shrunk first, then the plan; both land in the reproducer
    (``arrival_trace`` / ``fault_plan``).
    """
    fault = inject_share_fault if inject_fault else None
    suite = VerificationSuite(
        brute_force_max_vertices=brute_force_max_vertices,
        with_scipy=with_scipy,
        fault=fault,
        faults=faults,
        churn=churn,
        backend=backend,
        sharded=sharded,
        overload=overload,
    )
    report = FuzzReport(cases=cases, seed=seed, inject_fault=inject_fault,
                        backend=backend, sharded=sharded)

    if jobs == 1:
        results = (
            _run_case(index, seed, suite) for index in range(cases)
        )
    else:
        from ..perf.parallel import ParallelSweep

        results = iter(ParallelSweep(jobs).map(
            _run_case_task, [(i, seed, suite) for i in range(cases)]
        ))

    for outcomes, failure in results:
        for outcome in outcomes:
            report.tally(outcome)
        if failure is None:
            continue
        if reproducer_dir is not None:
            failure.reproducer_path = _write_reproducer(
                reproducer_dir, seed, failure.case, failure.check, failure,
                backend=backend,
            )
        report.failures.append(failure)
        incr("verify.failures")
        if len(report.failures) >= max_failures:
            break
    return report


def _write_reproducer(
    directory: str, seed: int, case: int, check: str,
    failure: FuzzFailure, backend: str = "simplex",
) -> str:
    """Serialize a shrunk failure for humans, CI artifacts, and replay."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    safe_check = check.replace("/", "_").replace(" ", "_")
    path = out_dir / f"verify-reproducer-s{seed}-c{case}-{safe_check}.json"
    doc = {
        "kind": "repro.verify/reproducer",
        "seed": seed,
        "case": case,
        "check": check,
        "backend": backend,
        "details": failure.details,
        "scenario": failure.shrunk,
        "original_scenario": failure.scenario,
    }
    if failure.fault_plan is not None:
        doc["fault_plan"] = failure.fault_plan
    if failure.churn_timeline is not None:
        doc["churn_timeline"] = failure.churn_timeline
    if failure.arrival_trace is not None:
        doc["arrival_trace"] = failure.arrival_trace
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)
