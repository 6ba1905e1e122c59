"""Campaigns: sweep seeded cases through the resilience stack, check the
paper's safety invariants on every run.

Three modes share one skeleton — one case (:class:`CaseChecks`), one
violation (:class:`Violation`), one report (:class:`CampaignReport`) and
one violation-collecting sweep with a ``max_violations`` cut-off.  Each
mode supplies only its checks, its replay payload and its report extras:

* **chaos** (:func:`run_chaos`) — lossy 2PA-D
  (:class:`~repro.resilience.channel.UnreliableChannel` over a seeded
  injector) with the degradation ladder and the
  :class:`~repro.resilience.degrade.ResilientLPBackend` fallback chain,
  under one :class:`~repro.resilience.faults.FaultPlan` per loss rate.
  The (possibly degraded) allocation never exceeds any clique capacity
  — Eq. (6), under *every* fault plan — the run reports a valid
  convergence status instead of raising, and after fault healing (a
  fresh lossless run) every flow is restored to at least its basic
  share (Sec. II-D) with Eq. (6) still holding.  Replay payload: the
  fault plan.
* **churn** (:func:`run_churn`) — the long-lived
  :class:`~repro.resilience.runtime.AllocatorRuntime` through a seeded
  :class:`~repro.resilience.epochs.ChurnTimeline`, with a mid-timeline
  crash + restore differential.  Replay payload: the timeline.
* **overload** (:func:`run_overload`) — the runtime behind an
  :class:`~repro.resilience.overload.OverloadRuntime` under an open-loop
  arrival trace at a multiple of the measured sustainable rate.  Replay
  payload: the arrival trace and the fault plan.

Every mode draws scenario ``i`` from the verification fuzzer's generator,
so campaign case ``i`` of seed ``s`` is the topology the ``verify``
harness would draw, and records any violation together with the
serialized scenario and its replay payload.  The ``repro-experiments
chaos`` / ``churn`` / ``overload`` subcommands drive exactly this code
and emit the report as a :mod:`repro.obs` run artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .channel import STATUS_ORDER, UnreliableChannel
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
    "Violation",
    "CampaignReport",
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

ShareFault = Callable[[Dict[str, float], float], Dict[str, float]]
Check = Tuple[str, bool, str]


# ----------------------------------------------------------------------
# The skeleton: case, violation, report, sweep
# ----------------------------------------------------------------------

@dataclass
class CaseChecks:
    """Everything one campaign case produced, checks included.

    ``statuses`` counts the statuses the case adds to its report (one
    convergence status per chaos case, one per committed epoch
    otherwise); ``tallies`` holds the mode's other aggregates, of which
    the report sums those it keeps totals for.
    """

    status: str
    checks: List[Check]
    shares: Dict[str, float] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    tallies: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _details in self.checks)

    def failed_checks(self) -> List[Tuple[str, str]]:
        return [(name, details) for name, ok, details in self.checks
                if not ok]


def _raised(check: str, exc: Exception, counter: str,
            statuses: Optional[Dict[str, int]] = None) -> CaseChecks:
    """The case of a run that raised: one failed ``*.no_raise`` check."""
    incr(counter)
    return CaseChecks(
        status="raised",
        checks=[(check, False, f"{type(exc).__name__}: {exc}")],
        statuses=statuses or {},
    )


@dataclass
class Violation:
    """One safety-invariant violation, with everything needed to replay.

    ``key`` names the swept quantity the case ran at (``loss`` or
    ``rate``); ``replay`` holds the mode's serialized payload
    (``fault_plan``, ``churn_timeline``, or ``arrival_trace`` +
    ``fault_plan``).
    """

    case: int
    key: str
    value: float
    check: str
    details: str
    scenario: Dict[str, object]
    replay: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            self.key: self.value,
            "check": self.check,
            "details": self.details,
            "scenario": self.scenario,
            **self.replay,
        }


@dataclass
class CampaignReport:
    """Aggregate of one campaign, renderable and artifact-ready.

    ``params`` are the mode's configuration keys and ``totals`` its
    summed tallies (counts, count maps and row lists), each in artifact
    order.
    """

    mode: str
    cases: int
    seed: int
    params: Dict[str, object] = field(default_factory=dict)
    statuses: Counter = field(default_factory=Counter)
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    totals: Dict[str, object] = field(init=False)
    violations: List[Violation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.totals = {key: zero() for key, zero in _MODES[self.mode].totals}

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self, case: CaseChecks) -> None:
        self.statuses += case.statuses
        for key in self.totals:
            if key in case.tallies:
                self.totals[key] += case.tallies[key]
        for name, ok, _details in case.checks:
            row = self.checks.setdefault(name, {"pass": 0, "fail": 0})
            row["pass" if ok else "fail"] += 1
            incr(f"resilience.{name}.{'pass' if ok else 'fail'}")

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "cases": self.cases,
            "seed": self.seed,
            **self.params,
            "ok": self.ok,
            "statuses": dict(sorted(self.statuses.items())),
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
        }
        for key, total in self.totals.items():
            doc[key] = (dict(sorted(total.items()))
                        if isinstance(total, Counter) else total)
        doc["violations"] = [v.to_dict() for v in self.violations]
        return doc

    def render(self) -> str:
        mode = _MODES[self.mode]
        lines = mode.lines(self)
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
                    f"  case {v.case} @ {v.key} {v.value:g}: {v.check}"
                )
                if v.details:
                    lines.append(f"    {v.details}")
        else:
            lines.append(mode.held)
        return "\n".join(lines)


def _rows(title: str, unit: str, counts: Dict[str, int],
          *extra: Tuple[str, int]) -> List[str]:
    """One ``name  count`` table: sorted ``counts``, then ``extra`` lines."""
    return (
        [f"  {title:<28} {unit:>6}"]
        + [f"  {name:<28} {counts[name]:>6}" for name in sorted(counts)]
        + [f"  {label:<28} {value:>6}" for label, value in extra]
        + [""]
    )


def _epoch_rows(report: CampaignReport) -> List[str]:
    return _rows("epoch status", "epochs", report.statuses,
                 ("total epochs committed", report.totals["epochs_run"]))


def _chaos_lines(report: CampaignReport) -> List[str]:
    rates = report.params["loss_rates"]
    return [
        f"repro chaos: {report.cases} case(s) x {len(rates)} loss rate(s) "
        f"{tuple(rates)}, seed {report.seed}",
        "",
    ] + _rows("convergence status", "runs", report.statuses,
              ("flows degraded to basic", report.totals["degraded_flows"]))


def _churn_lines(report: CampaignReport) -> List[str]:
    p = report.params
    return [
        f"repro churn: {report.cases} timeline(s) x "
        f"{len(p['loss_rates'])} loss rate(s) {tuple(p['loss_rates'])}, "
        f"{p['epochs']} epoch(s), seed {report.seed}"
        + (f", hysteresis {p['hysteresis']:g}"
           if p["hysteresis"] is not None else ""),
        "",
    ] + _epoch_rows(report) + _rows("admission action", "flows",
                                    report.totals["admissions"])


def _overload_lines(report: CampaignReport) -> List[str]:
    p = report.params
    lines = [
        f"repro overload: {report.cases} case(s), {p['epochs']} "
        f"epoch(s), offered {p['multiplier']:g}x sustainable, "
        f"seed {report.seed}"
        + (f", epoch deadline {p['deadline_ms']:g} ms"
           if p["deadline_ms"] is not None else ""),
        "",
        f"  {'case':>4} {'sustainable':>12} {'offered':>9} "
        f"{'breaches':>9} {'p50 ms':>9} {'p99 ms':>9}",
    ]
    for i, row in enumerate(report.totals["rates"]):
        lines.append(
            f"  {i:>4} {row['sustainable']:>12g} "
            f"{row['offered']:>9g} {int(row['breaches']):>9} "
            f"{row['latency_p50_ms']:>9.2f} "
            f"{row['latency_p99_ms']:>9.2f}"
        )
    return lines + [""] + _epoch_rows(report) + _rows(
        "admission action", "flows", report.totals["admissions"],
        ("flows shed / evicted", report.totals["sheds"]),
    )


@dataclass(frozen=True)
class _Mode:
    """What one campaign mode adds to the shared skeleton."""

    key: str                     #: the swept quantity a violation names
    counter: str                 #: counted once per case
    totals: Tuple[Tuple[str, Callable[[], object]], ...]
    lines: Callable[[CampaignReport], List[str]]  #: header + extra rows
    held: str                    #: the all-clear line


_MODES: Dict[str, _Mode] = {
    "chaos": _Mode(
        "loss", "resilience.cases", (("degraded_flows", int),),
        _chaos_lines, "all safety invariants held",
    ),
    "churn": _Mode(
        "loss", "runtime.cases",
        (("admissions", Counter), ("epochs_run", int),
         ("degraded_flows", int)),
        _churn_lines, "all churn safety invariants held",
    ),
    "overload": _Mode(
        "rate", "runtime.overload.cases",
        (("admissions", Counter), ("rates", list), ("epochs_run", int),
         ("breaches", int), ("sheds", int)),
        _overload_lines, "all overload safety invariants held",
    ),
}

#: One swept case: index, swept value, case, scenario doc, replay payload.
CaseResult = Tuple[int, float, CaseChecks, Dict[str, object],
                   Dict[str, object]]


def _sweep(report: CampaignReport, results: Iterable[CaseResult],
           max_violations: int) -> CampaignReport:
    """Tally ``results`` in order into ``report``, collecting violations.

    Stops after the result that brings the violation count to
    ``max_violations``; a lazy ``results`` never computes the rest.
    """
    mode = _MODES[report.mode]
    for index, value, case, scenario_doc, replay in results:
        incr(mode.counter)
        report.tally(case)
        for name, details in case.failed_checks():
            report.violations.append(Violation(
                case=index, key=mode.key, value=value, check=name,
                details=details, scenario=scenario_doc, replay=replay,
            ))
        if len(report.violations) >= max_violations:
            break
    return report


# ----------------------------------------------------------------------
# Chaos campaigns: lossy 2PA-D under seeded fault plans
# ----------------------------------------------------------------------

def _healed_shares(scenario: Scenario,
                   analysis: ContentionAnalysis) -> Dict[str, float]:
    """The healing baseline: a fresh fault-free run *through the
    resilience stack* — plain 2PA-D local-LP shares plus the capacity
    governor, exactly what a lossless channel produces."""
    healed, _clamped = enforce_clique_capacity(
        analysis,
        DistributedAllocator(scenario, analysis=analysis).run().shares,
        floors=global_basic_shares(analysis),
    )
    return healed


def run_chaos_case(
    scenario: Scenario,
    plan: FaultPlan,
    registry: RngRegistry,
    prefix: Tuple = ("chaos", "channel"),
    analysis: Optional[ContentionAnalysis] = None,
    healed_shares: Optional[Dict[str, float]] = None,
    max_retries: int = 4,
    max_rounds: int = 256,
    fault: Optional[ShareFault] = None,
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
    checks: List[Check] = []

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
        return _raised("chaos.no_raise", exc, "resilience.case_raised",
                       statuses={"raised": 1})
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
        healed_shares = _healed_shares(scenario, analysis)
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
        statuses={status: 1},
        tallies={"degraded_flows": degraded},
    )


def _chaos_case_task(
    payload: Tuple[int, int, Tuple[float, ...], float, int, int, bool]
) -> List[CaseResult]:
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
    healed = _healed_shares(scenario, analysis)
    out: List[CaseResult] = []
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
        out.append((index, loss, case, scenario_to_dict(scenario),
                    {"fault_plan": plan.to_dict()}))
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
) -> CampaignReport:
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
    report = CampaignReport("chaos", cases, seed,
                            {"loss_rates": list(rates)})
    tasks = [
        (seed, index, rates, crash_prob, max_retries, max_rounds,
         inject_fault)
        for index in range(cases)
    ]
    results = ParallelSweep(jobs).map(_chaos_case_task, tasks)
    return _sweep(report, chain.from_iterable(results), max_violations)


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
    """The most severe status; an unknown one outranks them all."""
    def rank(status: str) -> int:
        return (_EPOCH_SEVERITY.index(status)
                if status in _EPOCH_SEVERITY else len(_EPOCH_SEVERITY))

    return max(statuses, key=rank, default="empty")


def _runtime_checks(
    prefix: str,
    runtime: AllocatorRuntime,
    analysis: ContentionAnalysis,
    shares: Dict[str, float],
    fault: Optional[ShareFault],
) -> List[Check]:
    """The five checks every runtime campaign case makes after its run.

    * ``no_raise`` — the runtime survived (a raise never gets here);
    * ``epoch_checks`` — every committed epoch's recorded Eq. (6) and
      basic-floor checks passed;
    * ``admission_reasoned`` — every non-admit decision carries a
      machine-readable reason;
    * ``final_clique_capacity`` / ``final_basic_floor`` — ``shares``
      re-checked from scratch against ``analysis`` (the ``fault`` hook
      perturbs them first when the harness itself is under test).
    """
    epoch_fails = [
        f"epoch {r.epoch}: {name} ({details})"
        for r in runtime.journal
        for name, ok, details in r.checks if not ok
    ]
    unreasoned = sorted({
        d.flow_id for d in runtime.admission.decisions
        if d.action != ADMIT and (not d.reason or d.reason == REASON_OK)
    })
    if fault is not None and shares:
        shares = fault(shares, runtime.scenario.capacity)
    capacity = check_clique_capacity(analysis, shares)
    floor = check_basic_fairness(analysis, shares)
    return [
        (f"{prefix}.no_raise", True, ""),
        (f"{prefix}.epoch_checks", not epoch_fails,
         "; ".join(epoch_fails[:3])),
        (f"{prefix}.admission_reasoned", not unreasoned,
         "" if not unreasoned
         else f"non-admit decisions without a reason: {unreasoned}"),
        (f"{prefix}.final_clique_capacity", capacity.ok, capacity.details),
        (f"{prefix}.final_basic_floor", floor.ok, floor.details),
    ]


def _journal_tallies(runtime: AllocatorRuntime) -> Dict[str, object]:
    """Epoch-status counts and admission-action counts of one run."""
    return {
        "statuses": Counter(r.status for r in runtime.journal),
        "admissions": Counter(d.action for d in runtime.admission.decisions),
        "epochs_run": len(runtime.journal),
    }


class _SimulatedCrash(BaseException):
    """Raised by the crash hook; BaseException so no handler eats it."""


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
    fault: Optional[ShareFault] = None,
    crash_restore: bool = True,
    mode: Optional[str] = None,
    jobs: Optional[int] = 1,
) -> CaseChecks:
    """One scenario through one churn timeline, checked end to end.

    The runtime runs the whole timeline (``mode`` defaults to
    distributed 2PA-D when the channel is lossy, centralized otherwise),
    then the five shared runtime checks (``churn.no_raise``,
    ``churn.epoch_checks``, ``churn.admission_reasoned``,
    ``churn.final_clique_capacity``, ``churn.final_basic_floor``; see
    :func:`_runtime_checks`) run on the final allocation, plus
    ``churn.crash_restore_identical``: a second runtime is crashed
    mid-timeline (after epoch ``epochs // 2`` is staged but before it
    commits), restored from its last checkpoint, and resumed; its final
    state payload must be *bitwise identical* to the uninterrupted
    run's.

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

    runtime = AllocatorRuntime(scenario, config())
    try:
        with phase_timer("runtime.case"):
            runtime.run_timeline(timeline)
    except Exception as exc:
        return _raised("churn.no_raise", exc, "runtime.case_raised")
    checks = _runtime_checks("churn", runtime, runtime.current_analysis(),
                             dict(runtime.shares), fault)

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

    tallies = _journal_tallies(runtime)
    tallies["degraded_flows"] = sum(
        int(r.convergence.get("unconfirmed") or 0) for r in runtime.journal
    )
    return CaseChecks(
        status=_worst_epoch_status([r.status for r in runtime.journal]),
        checks=checks,
        shares=dict(runtime.shares),
        statuses=tallies.pop("statuses"),
        tallies=tallies,
    )


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
) -> CampaignReport:
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
    report = CampaignReport("churn", cases, seed, {
        "loss_rates": list(rates), "epochs": epochs,
        "hysteresis": hysteresis,
    })

    def results() -> Iterable[CaseResult]:
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
                yield (index, loss, case, scenario_to_dict(scenario),
                       {"churn_timeline": timeline.to_dict()})

    return _sweep(report, results(), max_violations)


# ----------------------------------------------------------------------
# Overload campaigns: open-loop heavy traffic against the protected runtime
# ----------------------------------------------------------------------

#: Geometric arrival-rate ladder probed by
#: :func:`measure_sustainable_rate` (flows per epoch).
SUSTAINABLE_RATE_LADDER = (0.5, 1.0, 2.0, 4.0, 8.0)

#: Admission reasons that count as shed or evicted load.
_SHED_REASONS = ("queue-full", "queue-aged", "overload-shed")


def run_overload_case(
    scenario: Scenario,
    trace: ArrivalTrace,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
    hysteresis: Optional[float] = None,
    jobs: Optional[int] = 1,
    max_queue: int = 32,
    max_queue_age: Optional[int] = 8,
    stall_epochs: int = 0,
    fault: Optional[ShareFault] = None,
    clock: Optional[Callable[[], float]] = None,
) -> CaseChecks:
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

    Seven properties are checked: the five shared runtime checks
    (:func:`_runtime_checks`, prefixed ``overload.``) — where
    ``overload.epoch_checks`` covers every *validated* epoch (breach
    epochs re-commit the last validated allocation and record no new
    checks) and the final allocation is the last non-empty committed
    one — plus:

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

    try:
        with phase_timer("runtime.overload.case"):
            harness.run_trace(
                trace, bursts=plan.bursts if plan is not None else ()
            )
    except Exception as exc:
        return _raised("overload.no_raise", exc, "runtime.case_raised")

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
    checks = _runtime_checks("overload", runtime, analysis, shares, fault)

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

    stats = harness.stats()
    tallies = _journal_tallies(runtime)
    tallies.update(
        breaches=int(stats["breaches"]),
        sheds=sum(1 for d in runtime.admission.decisions
                  if d.reason in _SHED_REASONS),
        latency_p50_ms=float(stats["latency_p50_ms"]),
        latency_p99_ms=float(stats["latency_p99_ms"]),
    )
    return CaseChecks(
        status=_worst_epoch_status([r.status for r in runtime.journal]),
        checks=checks,
        shares=dict(runtime.shares),
        statuses=tallies.pop("statuses"),
        tallies=tallies,
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
        tallies = probe.tallies
        clean = (probe.ok and tallies["breaches"] == 0
                 and tallies["admissions"].get("reject", 0) == 0
                 and tallies["sheds"] == 0
                 and tallies["admissions"].get("queue", 0) == 0)
        if clean:
            best = float(rate)
        else:
            break
    return best


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
) -> CampaignReport:
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
    when the watchdog demonstrably bit.  The report's ``rates`` total
    holds one row per case: sustainable and offered rate, breaches and
    the epoch-latency p50/p99.
    """
    from ..verify.fuzzer import generate_scenario, inject_share_fault

    fault = inject_share_fault if inject_fault else None
    if inject_fault:
        stall_epochs = max(stall_epochs, 3)
    report = CampaignReport("overload", cases, seed, {
        "epochs": epochs, "multiplier": float(multiplier),
        "deadline_ms": deadline_ms,
    })
    plan = (
        FaultPlan(worker_crashes=(WorkerCrash(component=0, attempts=1),))
        if worker_crash else None
    )

    def results() -> Iterable[CaseResult]:
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
            case = run_overload_case(
                scenario, trace, seed=seed, deadline_ms=deadline_ms,
                plan=plan, hysteresis=hysteresis, jobs=jobs,
                max_queue=max_queue, max_queue_age=max_queue_age,
                stall_epochs=stall_epochs, fault=fault,
            )
            tallies = case.tallies
            tallies["rates"] = [{
                "sustainable": sustainable,
                "offered": offered,
                "breaches": float(tallies.get("breaches", 0)),
                "latency_p50_ms": tallies.get("latency_p50_ms", 0.0),
                "latency_p99_ms": tallies.get("latency_p99_ms", 0.0),
            }]
            yield (index, offered, case, scenario_to_dict(scenario), {
                "arrival_trace": trace.to_dict(),
                "fault_plan": plan.to_dict() if plan is not None else None,
            })

    return _sweep(report, results(), max_violations)
