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
from functools import partial
from itertools import chain
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    TypeVar,
)

from ..core.allocation import (
    basic_allocation,
    basic_fairness_lp_allocation,
    build_basic_fairness_lp,
    fairness_constrained_allocation,
)
from ..core.bounds import bound_vs_basic_consistency
from ..core.contention import ContentionAnalysis
from ..core.model import Flow, Network, Scenario
from ..obs.artifact import ShareDigest
from ..obs.registry import incr
from ..obs.trace import span
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
    maxmin_session_mismatches,
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

T = TypeVar("T")


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


def _bitwise_outcome(
    name: str,
    run: Callable[[], Tuple[Dict[str, float], Dict[str, float]]],
) -> CheckOutcome:
    """Check ``run()``'s ``(sharded, monolithic)`` shares are equal with
    ``==``; a raise is a failure too."""
    try:
        shares, expected = run()
        ok = shares == expected
        details = "" if ok else "; ".join(
            f"{fid}: sharded {shares.get(fid)!r} != "
            f"monolithic {expected.get(fid)!r}"
            for fid in sorted(set(shares) | set(expected))
            if shares.get(fid) != expected.get(fid)
        )[:400]
    except Exception as exc:
        ok = False
        details = f"{type(exc).__name__}: {exc}"
    return CheckOutcome(name, PASS if ok else FAIL, details)


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
        backend: str = "revised",
        sharded: bool = False,
        overload: bool = False,
    ) -> None:
        self.brute_force_max_vertices = brute_force_max_vertices
        self.lp_tol = lp_tol
        self.with_scipy = with_scipy
        self.fault = fault
        #: Replay axes (:data:`AXES`) run on every case, in table order —
        #: ``repro verify --faults`` / ``--churn`` / ``--overload``.
        self.axes = tuple(
            name for name, on in (("faults", faults), ("churn", churn),
                                  ("overload", overload)) if on
        )
        #: Also run the component-sharded differential axis — the
        #: :class:`~repro.perf.shard.ShardedSolver` against the
        #: monolithic LP, a flow-relabeled copy through a solver primed
        #: on the original, plus an
        #: :class:`AllocatorRuntime` journal against a cold monolithic
        #: solve of every epoch — ``repro verify --sharded``.  Every
        #: comparison is bitwise (``==`` on floats): sharding is exact.
        self.sharded = sharded
        #: Float LP solver under test (``repro verify --backend``): every
        #: allocation the suite checks and the float side of the
        #: ``lp.float_vs_exact`` oracle run on this backend.
        self.backend = backend

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario,
            committed: Optional[List[Dict[str, float]]] = None,
            ) -> List[CheckOutcome]:
        """All checks on ``scenario``; never raises on check failure.
        The phase-1 LP allocation is appended to ``committed``."""
        out: List[CheckOutcome] = []
        analysis = ContentionAnalysis(scenario)
        b = scenario.capacity

        # Differential oracle: Bron–Kerbosch vs exhaustive enumeration.
        with span("verify.cliques"):
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
        with span("verify.allocations"):
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

        lp_alloc, lp_checks = self._lp_stage(analysis, b)
        out.extend(lp_checks)
        if committed is not None:
            committed.append(dict(lp_alloc.shares))

        # Differential oracle: 2PA-D against 2PA-C.
        with span("verify.2pad"):
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
        The relabeled check serves a renamed copy from a memo primed on
        the original's shapes; the runtime check replays a short
        arrival/departure timeline and compares every committed epoch
        with a cold monolithic solve of its active flows.
        """
        from ..perf.shard import ShardedSolver

        out: List[CheckOutcome] = []
        with span("verify.sharded"):
            out.append(_bitwise_outcome("sharded.vs_monolithic", lambda: (
                ShardedSolver(backend=self.backend).solve(analysis),
                lp_shares,
            )))
            out.append(self._sharded_relabeled_check(scenario, analysis))
            out.append(self._sharded_runtime_check(scenario))
        return out

    def _sharded_relabeled_check(
        self, scenario: Scenario, analysis: ContentionAnalysis
    ) -> CheckOutcome:
        """A flow-relabeled copy, solved through a solver primed on the
        original, against the cold monolithic solve of the copy.

        Every flow gets a new id of the same rank in name order, so
        every component of the copy is the original's shape: the copy
        is served from the memo, mapped by position onto the new ids.
        """
        from ..perf.shard import ShardedSolver

        rename = {fid: f"x{k:04d}"
                  for k, fid in enumerate(sorted(scenario.flow_ids))}
        copy = Scenario(
            scenario.network,
            [Flow(rename[f.flow_id], f.path, f.weight)
             for f in scenario.flows],
            name=f"{scenario.name}-relabeled",
            capacity=scenario.capacity,
        )

        def run() -> Tuple[Dict[str, float], Dict[str, float]]:
            solver = ShardedSolver(backend=self.backend)
            solver.solve(analysis)
            relabeled = ContentionAnalysis(copy)
            return solver.solve(relabeled), dict(
                basic_fairness_lp_allocation(
                    relabeled, backend=self.backend
                ).shares
            )

        return _bitwise_outcome("sharded.relabeled", run)

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
        """Only the ``lp.*`` and ``maxmin.*`` checks of :meth:`run` (same
        names/verdicts).

        The shrinker uses this as a fast path when the original failure
        is an LP check: re-proving such a failure on a candidate
        scenario does not require re-running the exponential brute-force
        clique oracle or the 2PA-D differential, and skipping them keeps
        every shrink step cheap.  The checks it does run are produced by
        the same code as :meth:`run`, so a candidate fails here iff it
        fails there.
        """
        return self._lp_stage(ContentionAnalysis(scenario),
                              scenario.capacity)[1]

    def _lp_stage(
        self, analysis: ContentionAnalysis, capacity: float,
    ) -> Tuple[object, List[CheckOutcome]]:
        """The phase-1 LP (2PA-C) allocation and its ``lp.*`` checks.

        The allocation (optionally faulted) is checked against its
        invariants, then against the exact ``Fraction`` reference per
        contending flow group, plus total-objective agreement.  Returns
        the unfaulted allocation with the outcomes.
        """
        with span("verify.allocations"):
            lp_alloc = basic_fairness_lp_allocation(
                analysis, backend=self.backend
            )
            lp_shares = dict(lp_alloc.shares)
            if self.fault is not None:
                lp_shares = self.fault(lp_shares, capacity)
            out = self._allocation_checks(
                "lp", analysis, lp_shares, capacity,
                fairness=False, prop1=False, basic_fair=True,
            )
        with span("verify.exact_lp"):
            out.extend(self._lp_oracle_checks(analysis, lp_shares,
                                              capacity))
        return lp_alloc, out

    # ------------------------------------------------------------------
    def run_axis(
        self,
        name: str,
        scenario: Scenario,
        payloads: Sequence[object],
        seed: int,
        index: int,
        committed: Optional[List[Dict[str, float]]] = None,
    ) -> List[CheckOutcome]:
        """Run ``scenario`` with ``payloads`` through replay axis ``name``.

        The axis's campaign case checks come back relabelled under the
        axis name (``chaos.*`` becomes ``faults.*``), so the fuzz report
        separates them from the fault-free differential oracles; the
        allocations the case committed are appended to ``committed``.
        """
        with span(f"verify.{name}"):
            case = AXES[name].run(self, scenario, payloads, seed, index)
        if committed is not None:
            committed.extend(case.committed)
        return [
            CheckOutcome(f"{name}.{check.split('.', 1)[1]}",
                         PASS if ok else FAIL, details)
            for check, ok, details in case.checks
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
        out.append(self._maxmin_session_check(analysis, capacity))
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

    def _maxmin_session_check(
        self, analysis: ContentionAnalysis, capacity: float
    ) -> CheckOutcome:
        """The ``revised`` backend's warm max-min session against the
        cold dense ladder with every target probed, on every contending
        group; ``--backend`` does not change it.  An injected fault
        perturbs the session's shares."""
        perturb = None
        if self.fault is not None:
            def perturb(shares):
                return self.fault(shares, capacity)
        details: List[str] = []
        for group in analysis.groups:
            lp = build_basic_fairness_lp(analysis, group, capacity)
            weights = {f"r_{f.flow_id}": f.weight for f in group}
            details.extend(
                f"group [{','.join(f.flow_id for f in group)}] {line}"
                for line in maxmin_session_mismatches(lp, weights,
                                                      perturb=perturb)
            )
        return CheckOutcome(
            "maxmin.session", FAIL if details else PASS,
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


def _scenario_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """One-step-smaller scenarios: each flow dropped, then each node no
    flow routes through."""
    for candidate in chain(
        (_drop_flow(scenario, f.flow_id) for f in scenario.flows),
        (_drop_node(scenario, node) for node in scenario.network.nodes),
    ):
        if candidate is not None:
            yield candidate


def _greedy_shrink(start: T, candidates: Callable[[T], Iterable[T]],
                   still_fails: Callable[[T], bool]) -> T:
    """Move to the first candidate that still fails, until none does.

    Candidates are re-listed from the current value after every step;
    one that makes ``still_fails`` raise is rejected, so the reproducer
    stays faithful to the original symptom.
    """
    current = start
    while True:
        for candidate in candidates(current):
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False
            if failing:
                current = candidate
                break
        else:
            return current


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
) -> Scenario:
    """Greedy shrink: drop flows, then unused nodes, while still failing.

    ``still_fails`` must return True when the candidate scenario still
    exhibits the original failure; candidates that crash it are rejected
    so the reproducer stays faithful to the original symptom.
    """
    return _greedy_shrink(scenario, _scenario_candidates, still_fails)


# ----------------------------------------------------------------------
# Replay axes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    """One replay axis: a resilience campaign case run on every fuzz case.

    ``draw`` takes the axis's payloads from the case's registry streams,
    in shrink order; ``run`` drives them through the campaign's
    ``run_*_case`` and returns its case; ``fields`` names each payload's
    reproducer field.  Every payload serializes with ``to_dict`` and
    offers one-step-simpler variants through ``shrink_candidates``.
    """

    draw: Callable[[RngRegistry, int, Scenario], Tuple[object, ...]]
    run: Callable[..., object]
    fields: Tuple[str, ...]


def _draw_faults(registry: RngRegistry, index: int,
                 scenario: Scenario) -> Tuple[object, ...]:
    from ..resilience.faults import FaultPlan

    return (FaultPlan.draw(registry.stream(("verify", index, "faults")),
                           nodes=scenario.network.nodes),)


def _run_faults(suite: VerificationSuite, scenario: Scenario,
                payloads: Sequence[object], seed: int, index: int):
    # Lossy 2PA-D (retry/backoff channel, degradation ladder).  A fresh
    # registry per call keeps the channel's fault streams a pure
    # function of (seed, index): shrinking re-runs make byte-identical
    # per-link decisions.
    from ..resilience.campaign import run_chaos_case

    (plan,) = payloads
    return run_chaos_case(scenario, plan, RngRegistry(seed),
                          prefix=("verify", index, "faults", "channel"),
                          fault=suite.fault)


def _draw_churn(registry: RngRegistry, index: int,
                scenario: Scenario) -> Tuple[object, ...]:
    from ..resilience.epochs import ChurnTimeline

    return (ChurnTimeline.draw(
        registry.stream(("verify", index, "churn")),
        scenario.flow_ids,
        scenario.network.nodes,
        scenario.network.links(),
    ),)


def _run_churn(suite: VerificationSuite, scenario: Scenario,
               payloads: Sequence[object], seed: int, index: int):
    # The long-lived runtime: epoch pipeline, admission control,
    # per-epoch invariant records and the crash + restore differential.
    # Events naming entities a shrunk scenario lost are skipped (and
    # counted) by the runtime, so every candidate is well defined.
    from ..resilience.campaign import run_churn_case

    (timeline,) = payloads
    return run_churn_case(scenario, timeline, seed=seed, hysteresis=0.3,
                          stream_prefix=("verify", index, "churn"),
                          fault=suite.fault)


def _draw_overload(registry: RngRegistry, index: int,
                   scenario: Scenario) -> Tuple[object, ...]:
    from ..resilience.faults import FaultPlan
    from ..traffic.openloop import OpenLoopConfig, draw_arrival_trace

    trace = draw_arrival_trace(
        registry.stream(("verify", index, "overload")),
        list(scenario.flow_ids), 10, OpenLoopConfig(rate=3.0),
    )
    plan = FaultPlan.draw(
        registry.stream(("verify", index, "overload-plan")),
        nodes=scenario.network.nodes, overload=True,
    )
    return trace, plan


def _run_overload(suite: VerificationSuite, scenario: Scenario,
                  payloads: Sequence[object], seed: int, index: int):
    # The overload-protected runtime under the plan's arrival bursts.
    # Two early epochs run with an already-expired watchdog, so the
    # breach path and the breach_recorded pairing are exercised on every
    # case with no wall-clock dependence.
    from ..resilience.campaign import run_overload_case

    trace, plan = payloads
    return run_overload_case(scenario, trace, seed=seed, plan=plan,
                             hysteresis=0.3, max_queue_age=4,
                             stall_epochs=2, fault=suite.fault)


#: The replay axes by check prefix, in the order a case runs them.
AXES: Dict[str, Axis] = {
    "faults": Axis(_draw_faults, _run_faults, ("fault_plan",)),
    "churn": Axis(_draw_churn, _run_churn, ("churn_timeline",)),
    "overload": Axis(_draw_overload, _run_overload,
                     ("arrival_trace", "fault_plan")),
}

#: Every reproducer field an axis can fill, in artifact order.
REPLAY_FIELDS = ("fault_plan", "churn_timeline", "arrival_trace")


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
    #: The failing axis's shrunk payloads by reproducer field (empty for
    #: a fault-free check).
    replay: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            "shrunk": self.shrunk,
            "reproducer_path": self.reproducer_path,
            **{name: self.replay.get(name) for name in REPLAY_FIELDS},
        }


@dataclass
class FuzzReport:
    """Aggregate of one fuzzing run, renderable and artifact-ready."""

    cases: int
    seed: int
    inject_fault: bool
    backend: str = "revised"
    sharded: bool = False
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    #: Every case's committed allocations (the phase-1 LP's, then each
    #: replay axis's), in case order.
    shares: ShareDigest = field(default_factory=ShareDigest, compare=False,
                                repr=False)

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
            "shares_sha256": self.shares.hexdigest(),
            "failures": [f.to_dict() for f in self.failures],
        }

    def render(self) -> str:
        lines = [
            f"repro verify: {self.cases} case(s), seed {self.seed}"
            + (f" [backend {self.backend}]"
               if self.backend != "revised" else "")
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
) -> Tuple[List[CheckOutcome], Optional[FuzzFailure],
           List[Dict[str, float]]]:
    """Generate, check, and (on failure) shrink case ``index`` of ``seed``;
    also returns the allocations the case committed.

    Self-contained and deterministic: all randomness comes from the
    ``("verify", index)`` stream of a fresh registry, so the result is a
    pure function of ``(seed, index, suite config)`` — which is what lets
    :func:`run_fuzz` fan cases across worker processes and still merge a
    bit-identical report.
    """
    registry = RngRegistry(seed)
    committed: List[Dict[str, float]] = []
    with span("verify.case"):
        scenario = generate_scenario(registry, index)
        outcomes = suite.run(scenario, committed)
        payloads: Dict[str, Tuple[object, ...]] = {}
        for name in suite.axes:
            payloads[name] = AXES[name].draw(registry, index, scenario)
            outcomes = outcomes + suite.run_axis(
                name, scenario, payloads[name], seed, index, committed
            )
    incr("verify.cases")
    failed = [o for o in outcomes if o.failed]
    if not failed:
        return outcomes, None, committed
    first = failed[0]
    axis = first.name.split(".", 1)[0]
    replay = list(payloads.get(axis, ()))

    def fails_with(candidate: Scenario, candidate_replay) -> bool:
        if axis in payloads:
            outs = suite.run_axis(axis, candidate, candidate_replay,
                                  seed, index)
        elif axis in ("lp", "maxmin"):
            # LP-only failures shrink against the LP checks alone — no
            # brute-force clique enumeration per candidate.
            outs = suite.run_lp_checks(candidate)
        else:
            outs = suite.run(candidate)
        return any(o.name == first.name and o.failed for o in outs)

    def payload_fails(i: int, candidate) -> bool:
        return fails_with(minimal, replay[:i] + [candidate] + replay[i + 1:])

    with span("verify.shrink"):
        # The scenario first, then each payload in the axis's order,
        # every step against the others' current values.
        minimal = shrink_scenario(scenario,
                                  lambda c: fails_with(c, replay))
        for i, payload in enumerate(replay):
            replay[i] = _greedy_shrink(
                payload, lambda p: p.shrink_candidates(),
                partial(payload_fails, i),
            )
    failure = FuzzFailure(
        case=index,
        check=first.name,
        details=first.details,
        scenario=scenario_to_dict(scenario),
        shrunk=scenario_to_dict(minimal),
        replay={name: p.to_dict()
                for name, p in zip(AXES[axis].fields, replay)}
        if axis in payloads else {},
    )
    return outcomes, failure, committed


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
    backend: str = "revised",
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

    ``faults``, ``churn`` and ``overload`` switch on the replay axes
    of :data:`AXES`: every case also runs through lossy 2PA-D under a
    fault plan (``faults.*`` checks), through the long-lived runtime
    under a churn timeline (``churn.*``, including the crash + restore
    differential), and through the overload-protected runtime under an
    open-loop arrival trace plus an arrival-burst plan, with two
    forced deadline stalls (``overload.*``).  Payloads come from the
    case's ``("verify", i, <axis>)`` streams (the overload plan from
    ``"overload-plan"``).  On a failure the failing axis's payloads are
    shrunk after the scenario, in the axis's order, and land in the
    reproducer under their fields.

    ``backend`` selects the float LP solver under test (``"simplex"``
    or ``"revised"``); reproducers record it so a failure found on one
    backend is replayed against the same backend.

    ``sharded=True`` additionally runs the component-sharded
    differential axis per case — :class:`~repro.perf.shard.ShardedSolver`
    against the monolithic LP allocation, a
    flow-relabeled copy through a solver primed on the original against
    the copy's monolithic allocation, and a centralized runtime journal
    against a cold monolithic solve of each epoch — asserting bitwise
    identity throughout (``sharded.*`` checks).
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

    for outcomes, failure, committed in results:
        for outcome in outcomes:
            report.tally(outcome)
        report.shares.add(committed)
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
    failure: FuzzFailure, backend: str = "revised",
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
    doc.update(failure.replay)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)
