"""Command-line entry point: ``python -m repro`` or ``repro-experiments``.

Subcommands::

    examples              run all analytic worked examples (Figs. 1-5)
    table1                Table I (distributed local LPs on Fig. 6)
    table2 [--duration S] Table II simulation (Fig. 1 topology)
    table3 [--duration S] Table III simulation (Fig. 6 topology)
    ablation NAME         one of: alpha, cwmin, buffer, virtual-length,
                          scaling
    verify                differential oracles + paper invariants on
                          seeded random scenarios (fuzzing harness)
    chaos                 fault-injection campaign: lossy 2PA-D across a
                          loss-rate x crash-schedule grid with safety
                          invariants checked on every run
    churn                 long-lived runtime campaign: seeded churn
                          timelines through the epoch-based allocator
                          runtime (admission control, checkpoints, a
                          mid-timeline crash + restore differential)
    all                   everything above with default settings

Observability flags (on ``table1``/``table2``/``table3``/``ablation``/
``report``)::

    --json                print a schema-versioned run artifact (JSON) to
                          stdout instead of the human table
    --metrics-out PATH    write the artifact to PATH (atomic; ``.jsonl``
                          selects the streaming layout)
    --profile             print per-phase wall/CPU timings and counters
    --trace CATS          enable trace categories (comma-separated:
                          mac,chan,queue,app,sched) on simulation runs
    --trace-out PATH      enable hierarchical span tracing; write the
                          span records (JSONL) to PATH
    --telemetry PATH      stream telemetry events (JSONL) to PATH live
    --prom-out PATH       write metrics in Prometheus text format

With ``--json`` or ``--metrics-out``, every experiment emits both the
human table (unless ``--json`` replaces it) and a machine-readable
record — per-phase timings (clique enumeration, LP solves, sim loop),
2PA-D convergence rounds/messages, epoch-latency percentiles and time
attribution (the ``slo`` section), and the paper's table quantities —
that benchmark tooling can diff across PRs.

``report --artifact PATH`` switches to telemetry mode: it renders the
latency/attribution tables from a saved artifact and diffs timer means
against ``benchmarks/BENCH_obs.json`` / ``benchmarks/BENCH_perf.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .experiments import (
    ALL_ABLATIONS,
    build_report,
    build_report_record,
    run_all,
    run_table1,
    run_table2,
    run_table3,
)
from .obs import (
    EventBus,
    MetricsRegistry,
    RunArtifact,
    SpanTracer,
    get_event_bus,
    get_tracer,
    render_profile,
    set_event_bus,
    set_registry,
    set_tracer,
    trace_to_records,
    write_prometheus,
)
from .sim import NULL_TRACER, Tracer

#: Result of one observed experiment: human rendering, scenario name, and
#: the structured ``results`` payload for the artifact.
_Payload = Tuple[str, str, Dict[str, object]]


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print a run artifact (JSON) to stdout instead of the table",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run artifact to PATH (atomic; .jsonl = streaming)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall/CPU timings and counters",
    )
    parser.add_argument(
        "--trace", metavar="CATS", default=None,
        help="enable trace categories (comma-separated: "
             "mac,chan,queue,app,sched)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable hierarchical span tracing; write the span records "
             "(JSONL) to PATH",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="stream telemetry events (JSONL) to PATH as they happen "
             "(tail -f friendly)",
    )
    parser.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="write the collected metrics to PATH in Prometheus text "
             "exposition format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce 'End-to-End Fair Bandwidth Allocation in Multi-hop "
            "Wireless Ad Hoc Networks' (ICDCS 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="analytic worked examples")
    p = sub.add_parser("table1", help="Table I: distributed local LPs")
    _add_obs_flags(p)

    for name, help_text in (
        ("table2", "Table II simulation (scenario 1)"),
        ("table3", "Table III simulation (scenario 2)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--duration", type=float, default=40.0,
                       help="simulated seconds (default 40)")
        p.add_argument("--seed", type=int, default=1)
        _add_obs_flags(p)

    p = sub.add_parser("ablation", help="run one ablation study")
    p.add_argument("name", choices=sorted(ALL_ABLATIONS))
    _add_obs_flags(p)

    p = sub.add_parser(
        "verify",
        help="fuzz random scenarios through differential oracles and "
             "paper-invariant checkers",
    )
    p.add_argument("--cases", type=int, default=50,
                   help="number of random scenarios (default 50)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for the scenario streams (default 0)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb the LP allocation to prove the checkers "
                        "catch and shrink a bad allocation")
    p.add_argument("--reproducer-dir", metavar="DIR", default=None,
                   help="write shrunk failure reproducers (JSON) to DIR")
    p.add_argument("--with-scipy", action="store_true",
                   help="also cross-check LPs against scipy (slower)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the case sweep (0 = all "
                        "cores, default 1); the report is bit-identical "
                        "to a serial run")
    p.add_argument("--faults", action="store_true",
                   help="also run every case through lossy 2PA-D under a "
                        "seeded fault plan and check the resilience "
                        "safety invariants")
    p.add_argument("--churn", action="store_true",
                   help="also run every case through the long-lived "
                        "runtime under a seeded churn timeline and check "
                        "the churn safety invariants (failures shrink "
                        "the timeline)")
    p.add_argument("--backend", choices=("simplex", "revised"),
                   default="revised",
                   help="float LP solver under test (default revised, "
                        "the production backend); 'simplex' fuzzes the "
                        "dense tableau reference against the same "
                        "exact-Fraction oracle")
    p.add_argument("--sharded", action="store_true",
                   help="also run the component-sharded differential "
                        "axis: ShardedSolver vs the monolithic LP, a "
                        "flow-relabeled copy served from a primed memo "
                        "vs its monolithic LP, and every epoch of a "
                        "runtime journal vs a cold monolithic solve, "
                        "all asserted bitwise identical")
    p.add_argument("--overload", action="store_true",
                   help="also run every case through the "
                        "overload-protected runtime under an open-loop "
                        "heavy-traffic arrival trace with forced "
                        "deadline stalls and a seeded arrival-burst plan "
                        "(failures shrink the trace, then the plan)")
    _add_obs_flags(p)

    p = sub.add_parser(
        "chaos",
        help="fault-injection campaign: lossy 2PA-D across loss rates "
             "and crash schedules, safety invariants checked per run",
    )
    p.add_argument("--cases", type=int, default=25,
                   help="number of random scenarios (default 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for scenario + fault streams "
                        "(default 0)")
    p.add_argument("--loss", metavar="RATES", default="0,0.1,0.3",
                   help="comma-separated message loss rates "
                        "(default 0,0.1,0.3)")
    p.add_argument("--crash-prob", type=float, default=0.2,
                   help="per-node crash probability per plan (default 0.2)")
    p.add_argument("--max-retries", type=int, default=4,
                   help="channel retransmit budget per transfer (default 4)")
    p.add_argument("--max-rounds", type=int, default=256,
                   help="channel round budget per flow (default 256)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb every degraded allocation to prove the "
                        "safety checkers catch a bad allocation")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the case sweep (0 = all "
                        "cores, default 1); the report is bit-identical "
                        "to a serial run")
    _add_obs_flags(p)

    p = sub.add_parser(
        "churn",
        help="long-lived runtime campaign: seeded churn timelines "
             "through the epoch-based allocator runtime, safety "
             "invariants and a crash + restore differential per case",
    )
    p.add_argument("--cases", type=int, default=30,
                   help="number of seeded churn timelines (default 30)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for scenario + timeline streams "
                        "(default 0)")
    p.add_argument("--loss", metavar="RATES", default="0,0.2",
                   help="comma-separated message loss rates; a lossy "
                        "rate runs epochs through 2PA-D over the "
                        "unreliable channel (default 0,0.2)")
    p.add_argument("--epochs", type=int, default=10,
                   help="epochs per timeline (default 10)")
    p.add_argument("--crash-prob", type=float, default=0.0,
                   help="per-node crash probability per lossy epoch's "
                        "fault plan (default 0)")
    p.add_argument("--hysteresis", type=float, default=0.3,
                   help="max fractional per-epoch change of a flow's "
                        "allocation; 0 disables damping (default 0.3)")
    p.add_argument("--no-crash-restore", action="store_true",
                   help="skip the per-case mid-timeline crash + restore "
                        "differential (faster)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb every final allocation to prove the "
                        "safety checkers catch a bad allocation")
    _add_obs_flags(p)

    p = sub.add_parser(
        "overload",
        help="overload campaign: open-loop heavy traffic at a multiple "
             "of the measured sustainable rate through the "
             "deadline-watchdogged, load-shedding runtime",
    )
    p.add_argument("--cases", type=int, default=5,
                   help="number of random scenarios (default 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for scenario + trace streams "
                        "(default 0)")
    p.add_argument("--epochs", type=int, default=12,
                   help="epochs per arrival trace (default 12)")
    p.add_argument("--multiplier", type=float, default=2.0,
                   help="offered load as a multiple of the measured "
                        "sustainable arrival rate (default 2)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="epoch solve budget in milliseconds; breaching "
                        "it commits the last validated allocation and "
                        "escalates the shedding ladder (default: no "
                        "wall-clock deadline)")
    p.add_argument("--max-queue", type=int, default=32,
                   help="admission queue depth bound (default 32)")
    p.add_argument("--queue-age", type=int, default=8,
                   help="epochs a flow may wait before age eviction "
                        "(default 8)")
    p.add_argument("--stall-epochs", type=int, default=0,
                   help="force this many initial epochs to breach their "
                        "deadline (deterministic ladder exercise, "
                        "default 0)")
    p.add_argument("--hysteresis", type=float, default=0.3,
                   help="max fractional per-epoch change of a flow's "
                        "allocation; 0 disables damping (default 0.3)")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb the final allocation AND force "
                        "deadline stalls; the run then passes only if "
                        "the watchdog demonstrably bit (breaches "
                        "recorded) and the campaign stayed clean")
    _add_obs_flags(p)

    p = sub.add_parser("show", help="render a scenario and its analysis")
    p.add_argument("scenario", choices=[
        "fig1", "fig2", "fig6", "cross", "star", "grid",
        "parallel-chains", "pentagon",
    ])

    p = sub.add_parser("report", help="full reproduction report")
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-sim", action="store_true",
                   help="skip the simulation tables (fast)")
    p.add_argument("--artifact", metavar="PATH", default=None,
                   help="telemetry mode: render latency/attribution "
                        "tables and benchmark trend deltas from a saved "
                        "run artifact instead of rebuilding the report")
    p.add_argument("--bench-obs", metavar="PATH",
                   default="benchmarks/BENCH_obs.json",
                   help="observability benchmark baseline for trend "
                        "deltas (default benchmarks/BENCH_obs.json)")
    p.add_argument("--bench-perf", metavar="PATH",
                   default="benchmarks/BENCH_perf.json",
                   help="perf benchmark baseline for fast-path reference "
                        "lines (default benchmarks/BENCH_perf.json)")
    _add_obs_flags(p)

    p = sub.add_parser("all", help="run everything")
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _make_tracer(args: argparse.Namespace) -> Tracer:
    spec = getattr(args, "trace", None)
    if not spec:
        return NULL_TRACER
    categories = [c.strip() for c in spec.split(",") if c.strip()]
    return Tracer(categories)


def _capture_2pad_convergence(scenario) -> Dict[str, object]:
    """Run the (analytic, cheap) 2PA-D protocol to record convergence.

    Tables II/III simulate phase 2; the distributed phase-1 protocol's
    rounds/messages-to-convergence are a property of the scenario, so the
    artifact captures them from a dedicated run here even when the table's
    simulated systems use the centralized allocator.
    """
    from .core import DistributedAllocator

    allocator = DistributedAllocator(scenario)
    allocator.run()
    return dict(allocator.convergence)


def _run_observed(
    args: argparse.Namespace,
    kind: str,
    seed: Optional[int],
    config: Dict[str, object],
    payload: Callable[[Tracer], _Payload],
) -> int:
    """Shared driver for observed subcommands.

    Activates a metrics registry when any observability output is
    requested, runs ``payload`` (which does the actual experiment with the
    prepared tracer), then emits the human table, the JSON artifact, the
    profile, and/or the trace as flagged.
    """
    wants_artifact = args.json or args.metrics_out is not None
    trace_out = getattr(args, "trace_out", None)
    telemetry = getattr(args, "telemetry", None)
    prom_out = getattr(args, "prom_out", None)
    wants_registry = (
        wants_artifact or args.profile
        or trace_out is not None or telemetry is not None
        or prom_out is not None
    )
    tracer = _make_tracer(args)

    registry = MetricsRegistry() if wants_registry else None
    span_tracer = SpanTracer() if trace_out is not None else None
    event_bus = EventBus(path=telemetry) if telemetry is not None else None
    previous = None
    prev_tracer = prev_bus = None
    if registry is not None:
        from .obs import get_registry

        previous = get_registry()
        set_registry(registry)
    if span_tracer is not None:
        prev_tracer = get_tracer()
        set_tracer(span_tracer)
    if event_bus is not None:
        prev_bus = get_event_bus()
        set_event_bus(event_bus)
    wall_start = time.perf_counter()
    try:
        rendered, scenario_name, results = payload(tracer)
    finally:
        if registry is not None:
            set_registry(previous)
        if span_tracer is not None:
            set_tracer(prev_tracer)
        if event_bus is not None:
            set_event_bus(prev_bus)
            event_bus.close()
    wall_time = time.perf_counter() - wall_start

    if not args.json:
        print(rendered)

    if trace_out is not None:
        from .obs.jsonl import dump_jsonl

        dump_jsonl(trace_out, span_tracer.to_records())

    artifact: Optional[RunArtifact] = None
    if wants_artifact:
        artifact = RunArtifact(
            kind=kind,
            scenario=scenario_name,
            seed=seed,
            config=config,
            results=results,
            wall_time_s=wall_time,
        )
        artifact.attach_registry(registry)
        artifact.trace = trace_to_records(tracer)
        artifact.attach_slo(
            registry,
            trace_stats=span_tracer.stats() if span_tracer else None,
            event_stats=event_bus.stats() if event_bus else None,
        )
    if args.json:
        print(artifact.to_json())
    if args.metrics_out is not None:
        artifact.write(args.metrics_out)
    if prom_out is not None and registry is not None:
        write_prometheus(registry, prom_out)
    if args.profile and registry is not None:
        stream = sys.stderr if args.json else sys.stdout
        print(render_profile(registry), file=stream)
    if tracer is not NULL_TRACER and not wants_artifact:
        for record in tracer.records:
            print(record)
    return 0


def _run_report(
    args: argparse.Namespace,
    kind: str,
    label: str,
    config: Dict[str, object],
    run: Callable[[], object],
    healthy: Callable[[object], bool] = lambda report: report.ok,
) -> int:
    """Run one report-producing subcommand observed; exit 0 iff the
    report is ``healthy``."""
    reports: List[object] = []

    def payload(tracer: Tracer) -> _Payload:
        report = run()
        reports.append(report)
        return report.render(), label, report.to_dict()

    code = _run_observed(args, kind, args.seed, config, payload)
    if code != 0:
        return code
    return 0 if reports and healthy(reports[0]) else 1


def _campaign_healthy(
    args: argparse.Namespace,
    caught: Callable[[object], bool] = lambda report: True,
) -> Callable[[object], bool]:
    """The resilience campaigns' exit rule.

    A clean campaign is healthy.  Under ``--inject-fault`` the rule
    inverts (as the verify report does itself): healthy only if the
    safety checkers caught the injected fault and ``caught`` holds too.
    """
    if args.inject_fault:
        return lambda report: not report.ok and caught(report)
    return lambda report: report.ok


def _load_json_file(path: str) -> Optional[Dict[str, object]]:
    import json
    from pathlib import Path

    p = Path(path)
    if not p.is_file():
        return None
    with open(p, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _render_telemetry_report(args: argparse.Namespace) -> int:
    """``report --artifact``: latency, attribution, and trend tables.

    Consumes a saved run artifact (either layout), renders its embedded
    SLO section, and diffs the timer means against the checked-in
    benchmark baselines.  Works entirely from files — no experiment is
    re-run.
    """
    from .obs.slo import bench_trend_rows, perf_reference_rows, render_slo

    artifact = RunArtifact.load(args.artifact)
    lines: List[str] = [
        f"telemetry report — kind={artifact.kind} "
        f"scenario={artifact.scenario} seed={artifact.seed}",
        "",
    ]
    if artifact.slo is not None:
        lines.append(render_slo(artifact.slo))
    else:
        lines.append(
            "(artifact carries no slo section — re-run the experiment "
            "with --json/--metrics-out on this build to embed one)"
        )

    timers = artifact.metrics.get("timers", {})
    bench_obs = _load_json_file(args.bench_obs)
    if bench_obs is None:
        lines.append("")
        lines.append(f"(no trend baseline at {args.bench_obs})")
    else:
        rows = bench_trend_rows(timers, bench_obs)
        lines.append("")
        lines.append(f"trend vs {args.bench_obs}")
        if rows:
            lines.append(
                f"  {'timer':<30} {'mean_ms':>10} {'baseline':>10} "
                f"{'delta':>8}"
            )
            for r in rows:
                lines.append(
                    f"  {r['timer']:<30} {r['current_mean_ms']:>10.3f} "
                    f"{r['baseline_mean_ms']:>10.3f} "
                    f"{r['delta'] * 100.0:>+7.1f}%"
                )
        else:
            lines.append("  (no timers shared with the baseline)")

    bench_perf = _load_json_file(args.bench_perf)
    if bench_perf is not None:
        rows = perf_reference_rows(bench_perf)
        if rows:
            lines.append("")
            lines.append(
                f"fast-path reference ({args.bench_perf}, dynamic churn)"
            )
            lines.append(
                f"  {'nodes':>5} {'flows':>5} {'seed':>4} "
                f"{'fast ms/event':>14} {'speedup':>8}"
            )
            for r in rows:
                lines.append(
                    f"  {r['nodes']:>5} {r['flows']:>5} {r['seed']:>4} "
                    f"{r['fast_ms_per_event']:>14.3f} "
                    f"{r['speedup']:>7.1f}x"
                )
    print("\n".join(lines))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "examples":
        reports = run_all(verbose=True)
        return 0 if all(r.matches() for r in reports) else 1
    if args.command == "table1":

        def table1_payload(tracer: Tracer) -> _Payload:
            report = run_table1()
            return report.render(), "fig6", report.to_dict()

        return _run_observed(args, "table1", None, {}, table1_payload)
    if args.command in ("table2", "table3"):
        runner = run_table2 if args.command == "table2" else run_table3
        scenario_mod = "fig1" if args.command == "table2" else "fig6"

        def table_payload(tracer: Tracer) -> _Payload:
            table = runner(duration=args.duration, seed=args.seed,
                           tracer=tracer)
            results = table.to_dict()
            if args.json or args.metrics_out or args.profile:
                from . import scenarios as _scen

                scenario = getattr(_scen, scenario_mod).make_scenario()
                results["convergence_2pad"] = _capture_2pad_convergence(
                    scenario
                )
            return table.render(), table.scenario_name, results

        return _run_observed(
            args, args.command, args.seed,
            {"duration": args.duration}, table_payload,
        )
    if args.command == "ablation":

        def ablation_payload(tracer: Tracer) -> _Payload:
            sweep = ALL_ABLATIONS[args.name]()
            return sweep.render(), args.name, sweep.to_dict()

        return _run_observed(
            args, "ablation", None, {"name": args.name}, ablation_payload,
        )
    if args.command == "verify":
        from .verify import run_fuzz

        return _run_report(
            args, "verify", "random-fuzz",
            {"cases": args.cases, "inject_fault": args.inject_fault,
             "faults": args.faults, "churn": args.churn,
             "backend": args.backend, "sharded": args.sharded,
             "overload": args.overload},
            lambda: run_fuzz(
                cases=args.cases,
                seed=args.seed,
                inject_fault=args.inject_fault,
                reproducer_dir=args.reproducer_dir,
                with_scipy=args.with_scipy,
                backend=args.backend,
                jobs=args.jobs,
                faults=args.faults,
                churn=args.churn,
                sharded=args.sharded,
                overload=args.overload,
            ),
        )
    if args.command == "chaos":
        from .resilience import run_chaos

        loss_rates = [
            float(r) for r in args.loss.split(",") if r.strip() != ""
        ]
        return _run_report(
            args, "chaos", "random-chaos",
            {"cases": args.cases, "loss_rates": loss_rates,
             "crash_prob": args.crash_prob,
             "inject_fault": args.inject_fault, "jobs": args.jobs},
            lambda: run_chaos(
                cases=args.cases,
                seed=args.seed,
                loss_rates=loss_rates,
                crash_prob=args.crash_prob,
                max_retries=args.max_retries,
                max_rounds=args.max_rounds,
                inject_fault=args.inject_fault,
                jobs=args.jobs,
            ),
            _campaign_healthy(args),
        )
    if args.command == "churn":
        from .resilience import run_churn

        churn_rates = [
            float(r) for r in args.loss.split(",") if r.strip() != ""
        ]
        hysteresis = args.hysteresis if args.hysteresis > 0.0 else None
        return _run_report(
            args, "churn", "random-churn",
            {"cases": args.cases, "loss_rates": churn_rates,
             "epochs": args.epochs, "crash_prob": args.crash_prob,
             "hysteresis": hysteresis,
             "inject_fault": args.inject_fault},
            lambda: run_churn(
                cases=args.cases,
                seed=args.seed,
                loss_rates=churn_rates,
                epochs=args.epochs,
                crash_prob=args.crash_prob,
                hysteresis=hysteresis,
                inject_fault=args.inject_fault,
                crash_restore=not args.no_crash_restore,
            ),
            _campaign_healthy(args),
        )
    if args.command == "overload":
        from .resilience import run_overload

        overload_hyst = args.hysteresis if args.hysteresis > 0.0 else None
        return _run_report(
            args, "overload", "random-overload",
            {"cases": args.cases, "epochs": args.epochs,
             "multiplier": args.multiplier,
             "deadline_ms": args.deadline_ms,
             "max_queue": args.max_queue, "queue_age": args.queue_age,
             "stall_epochs": args.stall_epochs,
             "inject_fault": args.inject_fault},
            lambda: run_overload(
                cases=args.cases,
                seed=args.seed,
                epochs=args.epochs,
                multiplier=args.multiplier,
                deadline_ms=args.deadline_ms,
                hysteresis=overload_hyst,
                max_queue=args.max_queue,
                max_queue_age=args.queue_age,
                stall_epochs=args.stall_epochs,
                inject_fault=args.inject_fault,
            ),
            # The forced stalls must also have produced recorded
            # deadline breaches: the watchdog bit, not only the checkers.
            _campaign_healthy(
                args, lambda report: report.totals["breaches"] > 0
            ),
        )
    if args.command == "show":
        from .experiments import (
            render_allocation_comparison,
            render_contention_matrix,
            render_topology,
        )
        from .core import (
            ContentionAnalysis,
            basic_allocation,
            basic_fairness_lp_allocation,
            maxmin_flow_allocation,
            naive_allocation,
        )
        from . import scenarios as _scen

        makers = {
            "fig1": _scen.fig1.make_scenario,
            "fig2": _scen.fig2.make_multi_hop_scenario,
            "fig6": _scen.fig6.make_scenario,
            "cross": _scen.cross,
            "star": _scen.star,
            "grid": _scen.grid_scenario,
            "parallel-chains": _scen.parallel_chains,
            "pentagon": lambda: _scen.fig5.make_scenario(),
        }
        scenario = makers[args.scenario]()
        if args.scenario == "pentagon":
            analysis = _scen.fig5.make_analysis()
        else:
            analysis = ContentionAnalysis(scenario)
        print(render_topology(scenario))
        print()
        print(render_contention_matrix(analysis))
        print()
        allocations = {
            "naive": naive_allocation(analysis).shares,
            "basic": basic_allocation(analysis).shares,
            "maxmin": maxmin_flow_allocation(analysis).shares,
            "2PA LP": basic_fairness_lp_allocation(analysis).shares,
        }
        print(render_allocation_comparison(allocations,
                                           scenario.flow_ids))
        return 0
    if args.command == "report":
        if args.artifact is not None:
            return _render_telemetry_report(args)

        def report_payload(tracer: Tracer) -> _Payload:
            # --json suppresses the human rendering, so skip its (heavy)
            # build entirely rather than simulating the tables twice.
            rendered = ""
            if not args.json:
                rendered = build_report(
                    duration=args.duration, seed=args.seed,
                    include_simulations=not args.no_sim,
                ).render()
            results: Dict[str, object] = {}
            if args.json or args.metrics_out:
                results = build_report_record(
                    duration=args.duration, seed=args.seed,
                    include_simulations=not args.no_sim,
                )
            return rendered, "report", results

        return _run_observed(
            args, "report", args.seed,
            {"duration": args.duration, "no_sim": args.no_sim},
            report_payload,
        )
    if args.command == "all":
        reports = run_all(verbose=True)
        print(run_table1().render())
        print()
        print(run_table2(duration=args.duration, seed=args.seed).render())
        print()
        print(run_table3(duration=args.duration, seed=args.seed).render())
        return 0 if all(r.matches() for r in reports) else 1
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
