"""Chaos campaigns: sweep fault plans, check the safety invariants.

One *chaos case* runs the full resilience stack on one scenario under
one :class:`~repro.resilience.faults.FaultPlan`:

1. lossy 2PA-D (:class:`~repro.resilience.channel.UnreliableChannel`
   over a seeded injector) with the degradation ladder and the
   :class:`~repro.resilience.degrade.ResilientLPBackend` fallback chain;
2. the **safety invariants**, via the existing checkers from
   :mod:`repro.verify.invariants`:

   * the (possibly degraded) allocation never exceeds any clique
     capacity — Eq. (6), under *every* fault plan;
   * the run reports a valid convergence status instead of raising;
   * after fault healing (a fresh lossless run), every flow is restored
     to at least its basic share (Sec. II-D) and Eq. (6) still holds.

:func:`run_chaos` sweeps ``cases`` random scenarios (the verification
fuzzer's generator, so case ``i`` of seed ``s`` is the same topology the
``verify`` harness would draw) across a grid of loss rates, tallies
statuses and check outcomes, and records any violation together with the
serialized scenario *and* fault plan so it can be replayed.  The
``repro-experiments chaos`` subcommand drives exactly this code path and
emits the result as a :mod:`repro.obs` run artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.contention import ContentionAnalysis
from ..core.distributed import DistributedAllocator
from ..core.model import Scenario
from ..obs.registry import incr, phase_timer
from ..perf.parallel import ParallelSweep
from ..scenarios.io import scenario_to_dict
from ..sim.rng import RngRegistry
from ..verify.invariants import (
    check_basic_fairness,
    check_clique_capacity,
)
from .channel import CONVERGED, STATUS_ORDER, UnreliableChannel
from .degrade import (
    ResilientLPBackend,
    enforce_clique_capacity,
    global_basic_shares,
)
from ..traffic.openloop import (
    ArrivalTrace,
    OpenLoopConfig,
    draw_arrival_trace,
)
from .admission import ADMIT, REASON_OK
from .epochs import ChurnTimeline
from .faults import (
    FaultInjector,
    FaultPlan,
    WorkerCrash,
    WorkerFaultInjector,
)
from .overload import OverloadConfig, OverloadRuntime
from .runtime import AllocatorRuntime, RuntimeConfig

__all__ = [
    "CaseChecks",
    "ChaosViolation",
    "ChaosReport",
    "ChurnCase",
    "ChurnViolation",
    "ChurnReport",
    "OverloadCase",
    "OverloadViolation",
    "OverloadReport",
    "run_chaos_case",
    "run_chaos",
    "run_churn_case",
    "run_churn",
    "measure_sustainable_rate",
    "run_overload_case",
    "run_overload",
]

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.3)
DEFAULT_CHURN_LOSS_RATES = (0.0, 0.2)


@dataclass
class CaseChecks:
    """Everything one chaos case produced, checks included."""

    status: str
    checks: List[Tuple[str, bool, str]]
    shares: Dict[str, float] = field(default_factory=dict)
    healed_shares: Dict[str, float] = field(default_factory=dict)
    degraded_flows: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _details in self.checks)

    def failed_checks(self) -> List[Tuple[str, str]]:
        return [(name, details) for name, ok, details in self.checks
                if not ok]


def run_chaos_case(
    scenario: Scenario,
    plan: FaultPlan,
    registry: RngRegistry,
    prefix: Tuple = ("chaos", "channel"),
    analysis: Optional[ContentionAnalysis] = None,
    healed_shares: Optional[Dict[str, float]] = None,
    max_retries: int = 4,
    max_rounds: int = 256,
    fault: Optional[Callable[[Dict[str, float], float],
                             Dict[str, float]]] = None,
) -> CaseChecks:
    """One scenario under one fault plan, safety-checked end to end.

    ``fault`` optionally post-processes the degraded allocation before
    the capacity check — the hook that proves the harness catches a bad
    allocation (mirrors the verification fuzzer's ``--inject-fault``).
    ``healed_shares`` may carry a precomputed lossless run (the healing
    baseline is plan-independent); when omitted it is computed here.
    """
    if analysis is None:
        analysis = ContentionAnalysis(scenario)
    checks: List[Tuple[str, bool, str]] = []

    injector = FaultInjector(plan, registry, prefix=prefix)
    channel = UnreliableChannel(
        injector, max_retries=max_retries, max_rounds=max_rounds
    )
    backend = ResilientLPBackend()
    try:
        with phase_timer("resilience.case"):
            allocator = DistributedAllocator(
                scenario, backend=backend, analysis=analysis,
                channel=channel,
            )
            result = allocator.run()
    except Exception as exc:
        incr("resilience.case_raised")
        return CaseChecks(
            status="raised",
            checks=[("chaos.no_raise", False,
                     f"{type(exc).__name__}: {exc}")],
            error=f"{type(exc).__name__}: {exc}",
        )
    checks.append(("chaos.no_raise", True, ""))

    status = str(allocator.convergence.get("status", ""))
    checks.append((
        "chaos.status_valid",
        status in STATUS_ORDER,
        "" if status in STATUS_ORDER
        else f"unexpected status {status!r}",
    ))

    shares = dict(result.shares)
    if fault is not None:
        shares = fault(shares, scenario.capacity)
    res = check_clique_capacity(analysis, shares)
    checks.append(("chaos.clique_capacity", res.ok, res.details))

    if healed_shares is None:
        healed_shares, _clamped = enforce_clique_capacity(
            analysis,
            DistributedAllocator(scenario, analysis=analysis).run().shares,
            floors=global_basic_shares(analysis),
        )
    res = check_basic_fairness(analysis, healed_shares)
    checks.append(("chaos.healed_basic_fairness", res.ok, res.details))
    res = check_clique_capacity(analysis, healed_shares)
    checks.append(("chaos.healed_clique_capacity", res.ok, res.details))

    per_flow = allocator.convergence.get("per_flow", {})
    degraded = sum(
        1 for info in per_flow.values() if not info.get("confirmed")
    )
    return CaseChecks(
        status=status,
        checks=checks,
        shares=shares,
        healed_shares=dict(healed_shares),
        degraded_flows=degraded,
    )


@dataclass
class ChaosViolation:
    """One safety-invariant violation, with everything needed to replay."""

    case: int
    loss: float
    check: str
    details: str
    scenario: Dict[str, object]
    fault_plan: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "loss": self.loss,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            "fault_plan": self.fault_plan,
        }


@dataclass
class ChaosReport:
    """Aggregate of one chaos campaign, renderable and artifact-ready."""

    cases: int
    seed: int
    loss_rates: Tuple[float, ...]
    statuses: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    degraded_flows: int = 0
    violations: List[ChaosViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, case: CaseChecks) -> None:
        self.statuses[case.status] = self.statuses.get(case.status, 0) + 1
        self.degraded_flows += case.degraded_flows
        for name, ok, _details in case.checks:
            row = self.checks.setdefault(name, {"pass": 0, "fail": 0})
            row["pass" if ok else "fail"] += 1
            incr(f"resilience.{name}.{'pass' if ok else 'fail'}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "loss_rates": list(self.loss_rates),
            "ok": self.ok,
            "statuses": dict(sorted(self.statuses.items())),
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "degraded_flows": self.degraded_flows,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        lines = [
            f"repro chaos: {self.cases} case(s) x "
            f"{len(self.loss_rates)} loss rate(s) "
            f"{tuple(self.loss_rates)}, seed {self.seed}",
            "",
            f"  {'convergence status':<28} {'runs':>6}",
        ]
        for status in sorted(self.statuses):
            lines.append(f"  {status:<28} {self.statuses[status]:>6}")
        lines.append(
            f"  {'flows degraded to basic':<28} {self.degraded_flows:>6}"
        )
        lines.append("")
        lines.append(f"  {'safety check':<28} {'pass':>6} {'fail':>6}")
        for name in sorted(self.checks):
            row = self.checks[name]
            lines.append(
                f"  {name:<28} {row['pass']:>6} {row['fail']:>6}"
            )
        lines.append("")
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s):")
            for v in self.violations:
                lines.append(
                    f"  case {v.case} @ loss {v.loss:g}: {v.check}"
                )
                if v.details:
                    lines.append(f"    {v.details}")
        else:
            lines.append("all safety invariants held")
        return "\n".join(lines)


def _chaos_case_task(
    payload: Tuple[int, int, Tuple[float, ...], float, int, int, bool]
) -> List[Tuple[float, CaseChecks, Dict[str, object], Dict[str, object]]]:
    """One chaos case index across every loss rate (pool-friendly).

    A pure function of its payload: the registry is rebuilt from the
    seed, so the per-message fault draws are identical whether the case
    runs in the parent or in a pool worker.
    """
    seed, index, rates, crash_prob, max_retries, max_rounds, \
        inject_fault = payload
    from ..verify.fuzzer import generate_scenario, inject_share_fault

    fault = inject_share_fault if inject_fault else None
    registry = RngRegistry(seed)
    scenario = generate_scenario(registry, index)
    analysis = ContentionAnalysis(scenario)
    # The healing baseline is a fresh fault-free run *through the
    # resilience stack*: plain 2PA-D local-LP shares plus the
    # capacity governor — exactly what a lossless channel produces.
    healed, _clamped = enforce_clique_capacity(
        analysis,
        DistributedAllocator(scenario, analysis=analysis).run().shares,
        floors=global_basic_shares(analysis),
    )
    out: List[Tuple[float, CaseChecks, Dict[str, object],
                    Dict[str, object]]] = []
    for loss in rates:
        plan = FaultPlan.draw(
            registry.stream(("chaos", index, repr(loss))),
            nodes=scenario.network.nodes,
            loss=loss,
            crash_prob=crash_prob,
        )
        case = run_chaos_case(
            scenario, plan, registry,
            prefix=("chaos", index, repr(loss), "channel"),
            analysis=analysis,
            healed_shares=healed,
            max_retries=max_retries,
            max_rounds=max_rounds,
            fault=fault,
        )
        out.append((loss, case, scenario_to_dict(scenario),
                    plan.to_dict()))
    return out


def run_chaos(
    cases: int = 25,
    seed: int = 0,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    crash_prob: float = 0.2,
    max_retries: int = 4,
    max_rounds: int = 256,
    max_violations: int = 5,
    inject_fault: bool = False,
    jobs: Optional[int] = 1,
) -> ChaosReport:
    """Sweep ``cases`` scenarios x ``loss_rates`` fault plans.

    Scenario ``i`` comes from the verification fuzzer's generator (same
    stream layout, so chaos case ``i`` and verify case ``i`` share a
    topology); the fault plan for ``(i, loss)`` is drawn from stream
    ``("chaos", i, loss)``.  ``inject_fault`` perturbs every degraded
    allocation so a healthy harness must *fail* — used to prove the
    checkers bite (the report's ``ok`` stays False-on-violation
    semantics; callers invert it, as the verify CLI does).

    ``jobs > 1`` fans the independent cases across a process pool
    (:class:`~repro.perf.parallel.ParallelSweep`); results merge in
    case order, so the report is identical at any job count — results
    past the ``max_violations`` cut-off are discarded during
    aggregation exactly as the serial sweep would never have computed
    them.
    """
    rates = tuple(float(r) for r in loss_rates)
    report = ChaosReport(cases=cases, seed=seed, loss_rates=rates)
    tasks = [
        (seed, index, rates, crash_prob, max_retries, max_rounds,
         inject_fault)
        for index in range(cases)
    ]
    results = ParallelSweep(jobs).map(_chaos_case_task, tasks)
    for index, case_results in enumerate(results):
        for loss, case, scenario_doc, plan_doc in case_results:
            incr("resilience.cases")
            report.tally(case)
            for name, details in case.failed_checks():
                report.violations.append(ChaosViolation(
                    case=index,
                    loss=loss,
                    check=name,
                    details=details,
                    scenario=scenario_doc,
                    fault_plan=plan_doc,
                ))
            if len(report.violations) >= max_violations:
                return report
    return report


# ----------------------------------------------------------------------
# Churn campaigns: the long-lived runtime under seeded timelines
# ----------------------------------------------------------------------

#: Per-epoch solver statuses from most to least healthy; a case reports
#: the worst status any of its committed epochs produced.
_EPOCH_SEVERITY = (
    "empty", "converged", "converged-partial", "deadline-breach",
    "overload-clamp", "timed-out", "fallback-basic",
)


def _worst_epoch_status(statuses: Sequence[str]) -> str:
    worst = "empty"
    for status in statuses:
        rank = (_EPOCH_SEVERITY.index(status)
                if status in _EPOCH_SEVERITY else len(_EPOCH_SEVERITY))
        if rank > _EPOCH_SEVERITY.index(worst):
            worst = status if status in _EPOCH_SEVERITY else status
            if status not in _EPOCH_SEVERITY:
                return status
    return worst


class _SimulatedCrash(BaseException):
    """Raised by the crash hook; BaseException so no handler eats it."""


@dataclass
class ChurnCase(CaseChecks):
    """One churn case: :class:`CaseChecks` plus journal aggregates."""

    epochs_run: int = 0
    epoch_statuses: Dict[str, int] = field(default_factory=dict)
    admissions: Dict[str, int] = field(default_factory=dict)


def _canonical_state(runtime: AllocatorRuntime) -> str:
    return json.dumps(runtime.state_payload(), sort_keys=True,
                      separators=(",", ":"))


def run_churn_case(
    scenario: Scenario,
    timeline: ChurnTimeline,
    seed: int = 0,
    loss: float = 0.0,
    crash_prob: float = 0.0,
    hysteresis: Optional[float] = None,
    stream_prefix: Tuple = ("churn",),
    fault: Optional[Callable[[Dict[str, float], float],
                             Dict[str, float]]] = None,
    crash_restore: bool = True,
    mode: Optional[str] = None,
    jobs: Optional[int] = 1,
) -> ChurnCase:
    """One scenario through one churn timeline, checked end to end.

    The runtime runs the whole timeline (``mode`` defaults to
    distributed 2PA-D when the channel is lossy, centralized otherwise),
    then five properties are checked:

    * ``churn.no_raise`` — the runtime survives the timeline;
    * ``churn.epoch_checks`` — every committed epoch's recorded Eq. (6)
      and basic-floor checks passed;
    * ``churn.admission_reasoned`` — every non-admit decision carries a
      machine-readable reason;
    * ``churn.final_clique_capacity`` / ``churn.final_basic_floor`` —
      the final allocation re-checked from scratch (the ``fault`` hook
      perturbs it first when the harness itself is under test);
    * ``churn.crash_restore_identical`` — a second runtime is crashed
      mid-timeline (after epoch ``epochs // 2`` is staged but before it
      commits), restored from its last checkpoint, and resumed; its
      final state payload must be *bitwise identical* to the
      uninterrupted run's.

    ``jobs`` sizes the process pool of the runtime's component-sharded
    centralized solver (results are bitwise identical at any job count).
    """
    if mode is None:
        mode = "distributed" if (loss > 0.0 or crash_prob > 0.0) \
            else "centralized"

    def config(checkpoint_path: Optional[str] = None) -> RuntimeConfig:
        return RuntimeConfig(
            seed=seed, mode=mode, hysteresis=hysteresis, loss=loss,
            crash_prob=crash_prob, stream_prefix=stream_prefix, jobs=jobs,
            checkpoint_path=checkpoint_path,
        )

    checks: List[Tuple[str, bool, str]] = []
    runtime = AllocatorRuntime(scenario, config())
    try:
        with phase_timer("runtime.case"):
            runtime.run_timeline(timeline)
    except Exception as exc:
        incr("runtime.case_raised")
        return ChurnCase(
            status="raised",
            checks=[("churn.no_raise", False,
                     f"{type(exc).__name__}: {exc}")],
            error=f"{type(exc).__name__}: {exc}",
        )
    checks.append(("churn.no_raise", True, ""))

    epoch_fails = [
        f"epoch {r.epoch}: {name} ({details})"
        for r in runtime.journal
        for name, ok, details in r.checks if not ok
    ]
    checks.append(("churn.epoch_checks", not epoch_fails,
                   "; ".join(epoch_fails[:3])))

    unreasoned = sorted({
        d.flow_id for d in runtime.admission.decisions
        if d.action != ADMIT and (not d.reason or d.reason == REASON_OK)
    })
    checks.append((
        "churn.admission_reasoned", not unreasoned,
        "" if not unreasoned
        else f"non-admit decisions without a reason: {unreasoned}",
    ))

    analysis = runtime.current_analysis()
    shares = dict(runtime.shares)
    if fault is not None and shares:
        shares = fault(shares, scenario.capacity)
    res = check_clique_capacity(analysis, shares)
    checks.append(("churn.final_clique_capacity", res.ok, res.details))
    res = check_basic_fairness(analysis, shares)
    checks.append(("churn.final_basic_floor", res.ok, res.details))

    if crash_restore and timeline.epochs >= 2:
        crash_epoch = max(1, timeline.epochs // 2)
        with tempfile.TemporaryDirectory() as tmp:
            ck = os.path.join(tmp, "checkpoint.json")
            crashed = AllocatorRuntime(scenario, config(ck))

            def hook(point: str, epoch: int) -> None:
                if point == "staged" and epoch == crash_epoch:
                    raise _SimulatedCrash()

            crashed.crash_hook = hook
            try:
                crashed.run_timeline(timeline)
                checks.append(("churn.crash_restore_identical", False,
                               "crash hook never fired"))
            except _SimulatedCrash:
                restored = AllocatorRuntime.restore(ck, scenario=scenario)
                restored.run_timeline(timeline)
                identical = (_canonical_state(restored)
                             == _canonical_state(runtime))
                checks.append((
                    "churn.crash_restore_identical", identical,
                    "" if identical else
                    f"state diverged after crash at epoch {crash_epoch} "
                    f"+ restore + replay",
                ))

    statuses: Dict[str, int] = {}
    for record in runtime.journal:
        statuses[record.status] = statuses.get(record.status, 0) + 1
    admissions: Dict[str, int] = {}
    for decision in runtime.admission.decisions:
        admissions[decision.action] = admissions.get(decision.action,
                                                     0) + 1
    return ChurnCase(
        status=_worst_epoch_status([r.status for r in runtime.journal]),
        checks=checks,
        shares=dict(runtime.shares),
        degraded_flows=sum(
            int(r.convergence.get("unconfirmed") or 0)
            for r in runtime.journal
        ),
        epochs_run=len(runtime.journal),
        epoch_statuses=statuses,
        admissions=admissions,
    )


@dataclass
class ChurnViolation:
    """One churn-safety violation, with everything needed to replay."""

    case: int
    loss: float
    check: str
    details: str
    scenario: Dict[str, object]
    churn_timeline: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "loss": self.loss,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            "churn_timeline": self.churn_timeline,
        }


@dataclass
class ChurnReport:
    """Aggregate of one churn campaign, renderable and artifact-ready."""

    cases: int
    seed: int
    loss_rates: Tuple[float, ...]
    epochs: int
    hysteresis: Optional[float] = None
    statuses: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    admissions: Dict[str, int] = field(default_factory=dict)
    epochs_run: int = 0
    degraded_flows: int = 0
    violations: List[ChurnViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, case: ChurnCase) -> None:
        for status, count in case.epoch_statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        for action, count in case.admissions.items():
            self.admissions[action] = (
                self.admissions.get(action, 0) + count
            )
        self.epochs_run += case.epochs_run
        self.degraded_flows += case.degraded_flows
        for name, ok, _details in case.checks:
            row = self.checks.setdefault(name, {"pass": 0, "fail": 0})
            row["pass" if ok else "fail"] += 1
            incr(f"resilience.{name}.{'pass' if ok else 'fail'}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "loss_rates": list(self.loss_rates),
            "epochs": self.epochs,
            "hysteresis": self.hysteresis,
            "ok": self.ok,
            "statuses": dict(sorted(self.statuses.items())),
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "admissions": dict(sorted(self.admissions.items())),
            "epochs_run": self.epochs_run,
            "degraded_flows": self.degraded_flows,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        lines = [
            f"repro churn: {self.cases} timeline(s) x "
            f"{len(self.loss_rates)} loss rate(s) "
            f"{tuple(self.loss_rates)}, {self.epochs} epoch(s), "
            f"seed {self.seed}"
            + (f", hysteresis {self.hysteresis:g}"
               if self.hysteresis is not None else ""),
            "",
            f"  {'epoch status':<28} {'epochs':>6}",
        ]
        for status in sorted(self.statuses):
            lines.append(f"  {status:<28} {self.statuses[status]:>6}")
        lines.append(f"  {'total epochs committed':<28} "
                     f"{self.epochs_run:>6}")
        lines.append("")
        lines.append(f"  {'admission action':<28} {'flows':>6}")
        for action in sorted(self.admissions):
            lines.append(
                f"  {action:<28} {self.admissions[action]:>6}"
            )
        lines.append("")
        lines.append(f"  {'safety check':<28} {'pass':>6} {'fail':>6}")
        for name in sorted(self.checks):
            row = self.checks[name]
            lines.append(
                f"  {name:<28} {row['pass']:>6} {row['fail']:>6}"
            )
        lines.append("")
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s):")
            for v in self.violations:
                lines.append(
                    f"  case {v.case} @ loss {v.loss:g}: {v.check}"
                )
                if v.details:
                    lines.append(f"    {v.details}")
        else:
            lines.append("all churn safety invariants held")
        return "\n".join(lines)


def run_churn(
    cases: int = 25,
    seed: int = 0,
    loss_rates: Sequence[float] = DEFAULT_CHURN_LOSS_RATES,
    epochs: int = 10,
    crash_prob: float = 0.0,
    hysteresis: Optional[float] = 0.3,
    max_violations: int = 5,
    inject_fault: bool = False,
    crash_restore: bool = True,
    jobs: Optional[int] = 1,
) -> ChurnReport:
    """Sweep ``cases`` seeded churn timelines x ``loss_rates``.

    Scenario ``i`` comes from the verification fuzzer's generator (the
    same topology verify case ``i`` would draw); its churn timeline is
    drawn from stream ``("churn", i)``, so a failing ``(seed, case)``
    pair reproduces from the command line alone.  ``inject_fault``
    perturbs every final allocation so a healthy harness must fail —
    the self-test that proves the checkers bite.  ``jobs`` sizes each
    runtime's shard process pool (the per-case solve fan-out); shares
    and reports are bitwise identical at any job count.
    """
    from ..verify.fuzzer import generate_scenario, inject_share_fault

    fault = inject_share_fault if inject_fault else None
    rates = tuple(float(r) for r in loss_rates)
    report = ChurnReport(cases=cases, seed=seed, loss_rates=rates,
                         epochs=epochs, hysteresis=hysteresis)
    for index in range(cases):
        registry = RngRegistry(seed)
        scenario = generate_scenario(registry, index)
        timeline = ChurnTimeline.draw(
            registry.stream(("churn", index)),
            scenario.flow_ids,
            scenario.network.nodes,
            scenario.network.links(),
            epochs=epochs,
        )
        for loss in rates:
            case = run_churn_case(
                scenario, timeline,
                seed=seed, loss=loss, crash_prob=crash_prob,
                hysteresis=hysteresis,
                stream_prefix=("churn", index, repr(loss)),
                fault=fault,
                crash_restore=crash_restore,
                jobs=jobs,
            )
            incr("runtime.cases")
            report.tally(case)
            for name, details in case.failed_checks():
                report.violations.append(ChurnViolation(
                    case=index,
                    loss=loss,
                    check=name,
                    details=details,
                    scenario=scenario_to_dict(scenario),
                    churn_timeline=timeline.to_dict(),
                ))
            if len(report.violations) >= max_violations:
                return report
    return report


# ----------------------------------------------------------------------
# Overload campaigns: open-loop heavy traffic against the protected runtime
# ----------------------------------------------------------------------

#: Geometric arrival-rate ladder probed by
#: :func:`measure_sustainable_rate` (flows per epoch).
SUSTAINABLE_RATE_LADDER = (0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass
class OverloadCase(CaseChecks):
    """One overload case: :class:`CaseChecks` plus pressure aggregates."""

    epochs_run: int = 0
    epoch_statuses: Dict[str, int] = field(default_factory=dict)
    admissions: Dict[str, int] = field(default_factory=dict)
    breaches: int = 0
    sheds: int = 0
    rung_max: int = 0
    max_queue_depth: int = 0
    stale_age_max: int = 0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0


def run_overload_case(
    scenario: Scenario,
    trace: "ArrivalTrace",
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
    hysteresis: Optional[float] = None,
    jobs: Optional[int] = 1,
    max_queue: int = 32,
    max_queue_age: Optional[int] = 8,
    stall_epochs: int = 0,
    fault: Optional[Callable[[Dict[str, float], float],
                             Dict[str, float]]] = None,
    clock: Optional[Callable[[], float]] = None,
) -> OverloadCase:
    """One scenario under one open-loop arrival trace, overload-protected.

    The runtime (centralized, sharded) is wrapped in an
    :class:`~repro.resilience.overload.OverloadRuntime` with the given
    epoch ``deadline_ms`` and driven through ``trace``.  ``plan``
    contributes adversarial :class:`~repro.resilience.faults.ArrivalBurst`
    extras and — with ``jobs > 1`` — worker crash/hang faults injected
    into the sharded solve (per-task timeout, bounded retries, serial
    fallback).  ``stall_epochs > 0`` forces that many initial epochs to
    run with an already-expired watchdog, the deterministic proof that
    the breach machinery bites.

    Seven properties are checked:

    * ``overload.no_raise`` — the protected runtime survives the trace
      (breaches are handled, never propagated);
    * ``overload.epoch_checks`` — every *validated* epoch's recorded
      Eq. (6) and basic-floor checks passed (breach epochs re-commit the
      last validated allocation and record no new checks);
    * ``overload.admission_reasoned`` — every non-admit decision
      (rejects, queue-full, age evictions, overload sheds) carries a
      machine-readable reason;
    * ``overload.final_clique_capacity`` / ``overload.final_basic_floor``
      — the final committed allocation re-checked from scratch (the
      ``fault`` hook perturbs it first when the harness is under test);
    * ``overload.queue_bounded`` — the admission queue never exceeded
      its configured depth bound;
    * ``overload.breach_recorded`` — the breach epochs in the runtime
      journal and the staleness records pair up exactly (no breach
      without a record, no record without a breach).
    """
    config = RuntimeConfig(
        seed=seed, mode="centralized", hysteresis=hysteresis,
        max_queue=max_queue, max_queue_age=max_queue_age,
        jobs=jobs, stream_prefix=("overload",),
    )
    runtime = AllocatorRuntime(scenario, config)
    if (plan is not None and plan.has_worker_faults
            and jobs is not None and jobs > 1):
        # Arm the sharded solver's fault-tolerant path: the injected
        # crashes/hangs are worker-environment faults, so the guarded
        # sweep retries and ultimately falls back in-process — shares
        # stay bitwise identical to the monolithic solve.
        runtime._shard.fault_injector = WorkerFaultInjector.from_plan(plan)
        runtime._shard.task_timeout = 1.0
        runtime._shard.task_retries = 2
    harness = OverloadRuntime(
        runtime, OverloadConfig(deadline_ms=deadline_ms), clock=clock
    )
    if stall_epochs > 0:
        harness.force_breach_epochs = set(range(1, stall_epochs + 1))

    checks: List[Tuple[str, bool, str]] = []
    try:
        with phase_timer("runtime.overload.case"):
            harness.run_trace(
                trace, bursts=plan.bursts if plan is not None else ()
            )
    except Exception as exc:
        incr("runtime.case_raised")
        return OverloadCase(
            status="raised",
            checks=[("overload.no_raise", False,
                     f"{type(exc).__name__}: {exc}")],
            error=f"{type(exc).__name__}: {exc}",
        )
    checks.append(("overload.no_raise", True, ""))

    epoch_fails = [
        f"epoch {r.epoch}: {name} ({details})"
        for r in runtime.journal
        for name, ok, details in r.checks if not ok
    ]
    checks.append(("overload.epoch_checks", not epoch_fails,
                   "; ".join(epoch_fails[:3])))

    unreasoned = sorted({
        d.flow_id for d in runtime.admission.decisions
        if d.action != ADMIT and (not d.reason or d.reason == REASON_OK)
    })
    checks.append((
        "overload.admission_reasoned", not unreasoned,
        "" if not unreasoned
        else f"non-admit decisions without a reason: {unreasoned}",
    ))

    analysis = runtime.current_analysis()
    shares = dict(runtime.shares)
    if not shares:
        # Finite flows may all have been served by the end of the
        # trace; re-check the last non-empty committed allocation so
        # the final invariants (and the ``fault`` self-test hook)
        # always have something to bite on.  Overload traces carry no
        # topology churn, so the current topology state is the one
        # every epoch committed under.
        for record in reversed(runtime.journal):
            if record.shares:
                topo = runtime._topology(runtime.down_links,
                                         runtime.down_nodes)
                analysis = topo.contention.analysis_for(
                    topo.ordered(set(record.active)),
                    name=f"{scenario.name}-overload-final",
                )
                shares = dict(record.shares)
                break
    if fault is not None and shares:
        shares = fault(shares, scenario.capacity)
    res = check_clique_capacity(analysis, shares)
    checks.append(("overload.final_clique_capacity", res.ok, res.details))
    res = check_basic_fairness(analysis, shares)
    checks.append(("overload.final_basic_floor", res.ok, res.details))

    checks.append((
        "overload.queue_bounded",
        harness.max_queue_depth <= max_queue,
        "" if harness.max_queue_depth <= max_queue
        else f"queue depth {harness.max_queue_depth} exceeded bound "
             f"{max_queue}",
    ))

    breach_epochs = {r.epoch for r in runtime.journal
                     if r.status == "deadline-breach"}
    record_epochs = {int(rec["epoch"]) for rec in harness.staleness_records}
    checks.append((
        "overload.breach_recorded",
        breach_epochs == record_epochs,
        "" if breach_epochs == record_epochs
        else f"breach epochs {sorted(breach_epochs)} != staleness "
             f"records {sorted(record_epochs)}",
    ))

    statuses: Dict[str, int] = {}
    for record in runtime.journal:
        statuses[record.status] = statuses.get(record.status, 0) + 1
    admissions: Dict[str, int] = {}
    sheds = 0
    for decision in runtime.admission.decisions:
        admissions[decision.action] = (
            admissions.get(decision.action, 0) + 1
        )
        if decision.reason in ("queue-full", "queue-aged",
                               "overload-shed"):
            sheds += 1
    stats = harness.stats()
    return OverloadCase(
        status=_worst_epoch_status([r.status for r in runtime.journal]),
        checks=checks,
        shares=dict(runtime.shares),
        epochs_run=len(runtime.journal),
        epoch_statuses=statuses,
        admissions=admissions,
        breaches=int(stats["breaches"]),
        sheds=sheds,
        rung_max=int(stats["rung_max"]),
        max_queue_depth=int(stats["max_queue_depth"]),
        stale_age_max=int(stats["stale_age_max"]),
        latency_p50_ms=float(stats["latency_p50_ms"]),
        latency_p99_ms=float(stats["latency_p99_ms"]),
    )


def measure_sustainable_rate(
    scenario: Scenario,
    registry: RngRegistry,
    index: int,
    epochs: int = 8,
    rates: Sequence[float] = SUSTAINABLE_RATE_LADDER,
    deadline_ms: Optional[float] = None,
    max_queue: int = 32,
    max_queue_age: Optional[int] = 8,
    seed: int = 0,
) -> float:
    """Largest probed arrival rate the scenario sustains cleanly.

    Walks the geometric ``rates`` ladder with short probe traces (each
    drawn from its own ``("overload", index, "probe", rate)`` stream, so
    the measurement is deterministic); a rate is *sustainable* when the
    probe completes with zero rejects, zero sheds, an empty waiting
    queue at the end, and zero deadline breaches.  Returns the largest
    sustainable rate, or the bottom of the ladder when even that
    overloads the scenario — the campaign then offers ``multiplier``
    times this, which is over capacity by construction.
    """
    flow_ids = list(scenario.flow_ids)
    best = float(rates[0])
    for rate in rates:
        trace = draw_arrival_trace(
            registry.stream(("overload", index, "probe", repr(rate))),
            flow_ids, epochs, OpenLoopConfig(rate=float(rate)),
        )
        probe = run_overload_case(
            scenario, trace, seed=seed, deadline_ms=deadline_ms,
            max_queue=max_queue, max_queue_age=max_queue_age,
        )
        rejects = probe.admissions.get("reject", 0)
        queued = probe.admissions.get("queue", 0)
        clean = (probe.ok and probe.breaches == 0 and rejects == 0
                 and probe.sheds == 0 and queued == 0)
        if clean:
            best = float(rate)
        else:
            break
    return best


@dataclass
class OverloadViolation:
    """One overload-safety violation, with everything needed to replay."""

    case: int
    rate: float
    check: str
    details: str
    scenario: Dict[str, object]
    arrival_trace: Dict[str, object]
    fault_plan: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "rate": self.rate,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            "arrival_trace": self.arrival_trace,
            "fault_plan": self.fault_plan,
        }


@dataclass
class OverloadReport:
    """Aggregate of one overload campaign, renderable and artifact-ready."""

    cases: int
    seed: int
    epochs: int
    multiplier: float
    deadline_ms: Optional[float] = None
    statuses: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    admissions: Dict[str, int] = field(default_factory=dict)
    #: Per-case rows: sustainable rate, offered rate, breaches, p50/p99.
    rates: List[Dict[str, float]] = field(default_factory=list)
    epochs_run: int = 0
    breaches: int = 0
    sheds: int = 0
    violations: List[OverloadViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, case: OverloadCase) -> None:
        for status, count in case.epoch_statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        for action, count in case.admissions.items():
            self.admissions[action] = (
                self.admissions.get(action, 0) + count
            )
        self.epochs_run += case.epochs_run
        self.breaches += case.breaches
        self.sheds += case.sheds
        for name, ok, _details in case.checks:
            row = self.checks.setdefault(name, {"pass": 0, "fail": 0})
            row["pass" if ok else "fail"] += 1
            incr(f"resilience.{name}.{'pass' if ok else 'fail'}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "epochs": self.epochs,
            "multiplier": self.multiplier,
            "deadline_ms": self.deadline_ms,
            "ok": self.ok,
            "statuses": dict(sorted(self.statuses.items())),
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "admissions": dict(sorted(self.admissions.items())),
            "rates": [dict(r) for r in self.rates],
            "epochs_run": self.epochs_run,
            "breaches": self.breaches,
            "sheds": self.sheds,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        lines = [
            f"repro overload: {self.cases} case(s), {self.epochs} "
            f"epoch(s), offered {self.multiplier:g}x sustainable, "
            f"seed {self.seed}"
            + (f", epoch deadline {self.deadline_ms:g} ms"
               if self.deadline_ms is not None else ""),
            "",
            f"  {'case':>4} {'sustainable':>12} {'offered':>9} "
            f"{'breaches':>9} {'p50 ms':>9} {'p99 ms':>9}",
        ]
        for i, row in enumerate(self.rates):
            lines.append(
                f"  {i:>4} {row['sustainable']:>12g} "
                f"{row['offered']:>9g} {int(row['breaches']):>9} "
                f"{row['latency_p50_ms']:>9.2f} "
                f"{row['latency_p99_ms']:>9.2f}"
            )
        lines.append("")
        lines.append(f"  {'epoch status':<28} {'epochs':>6}")
        for status in sorted(self.statuses):
            lines.append(f"  {status:<28} {self.statuses[status]:>6}")
        lines.append(f"  {'total epochs committed':<28} "
                     f"{self.epochs_run:>6}")
        lines.append("")
        lines.append(f"  {'admission action':<28} {'flows':>6}")
        for action in sorted(self.admissions):
            lines.append(
                f"  {action:<28} {self.admissions[action]:>6}"
            )
        lines.append(f"  {'flows shed / evicted':<28} {self.sheds:>6}")
        lines.append("")
        lines.append(f"  {'safety check':<28} {'pass':>6} {'fail':>6}")
        for name in sorted(self.checks):
            row = self.checks[name]
            lines.append(
                f"  {name:<28} {row['pass']:>6} {row['fail']:>6}"
            )
        lines.append("")
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s):")
            for v in self.violations:
                lines.append(
                    f"  case {v.case} @ rate {v.rate:g}: {v.check}"
                )
                if v.details:
                    lines.append(f"    {v.details}")
        else:
            lines.append("all overload safety invariants held")
        return "\n".join(lines)


def run_overload(
    cases: int = 5,
    seed: int = 0,
    epochs: int = 12,
    multiplier: float = 2.0,
    deadline_ms: Optional[float] = None,
    hysteresis: Optional[float] = 0.3,
    max_queue: int = 32,
    max_queue_age: Optional[int] = 8,
    stall_epochs: int = 0,
    worker_crash: bool = False,
    jobs: Optional[int] = 1,
    inject_fault: bool = False,
    max_violations: int = 5,
) -> OverloadReport:
    """Sweep ``cases`` scenarios under ``multiplier`` x sustainable load.

    Scenario ``i`` comes from the verification fuzzer's generator; its
    sustainable arrival rate is measured with probe traces, then an
    open-loop trace at ``multiplier`` times that rate (stream
    ``("overload", i, "trace")``) drives the protected runtime.
    ``stall_epochs`` forces that many initial deadline breaches per case
    (exercising the shedding ladder deterministically); ``worker_crash``
    arms one sharded-solve worker crash per case (meaningful with
    ``jobs > 1``).  ``inject_fault`` both perturbs the final allocation
    (the checkers must fail) and forces stalls, so a healthy harness
    must report breaches — the ``--inject-fault`` CLI run passes only
    when the watchdog demonstrably bit.
    """
    from ..verify.fuzzer import generate_scenario, inject_share_fault

    fault = inject_share_fault if inject_fault else None
    if inject_fault:
        stall_epochs = max(stall_epochs, 3)
    report = OverloadReport(
        cases=cases, seed=seed, epochs=epochs,
        multiplier=float(multiplier), deadline_ms=deadline_ms,
    )
    for index in range(cases):
        registry = RngRegistry(seed)
        scenario = generate_scenario(registry, index)
        sustainable = measure_sustainable_rate(
            scenario, registry, index,
            deadline_ms=deadline_ms,
            max_queue=max_queue, max_queue_age=max_queue_age,
            seed=seed,
        )
        offered = float(multiplier) * sustainable
        trace = draw_arrival_trace(
            registry.stream(("overload", index, "trace")),
            list(scenario.flow_ids), epochs,
            OpenLoopConfig(rate=offered),
        )
        plan = (
            FaultPlan(worker_crashes=(WorkerCrash(component=0,
                                                  attempts=1),))
            if worker_crash else None
        )
        case = run_overload_case(
            scenario, trace, seed=seed, deadline_ms=deadline_ms,
            plan=plan, hysteresis=hysteresis, jobs=jobs,
            max_queue=max_queue, max_queue_age=max_queue_age,
            stall_epochs=stall_epochs, fault=fault,
        )
        incr("runtime.overload.cases")
        report.tally(case)
        report.rates.append({
            "sustainable": sustainable,
            "offered": offered,
            "breaches": float(case.breaches),
            "latency_p50_ms": case.latency_p50_ms,
            "latency_p99_ms": case.latency_p99_ms,
        })
        for name, details in case.failed_checks():
            report.violations.append(OverloadViolation(
                case=index,
                rate=offered,
                check=name,
                details=details,
                scenario=scenario_to_dict(scenario),
                arrival_trace=trace.to_dict(),
                fault_plan=plan.to_dict() if plan is not None else None,
            ))
        if len(report.violations) >= max_violations:
            return report
    return report
