"""Overload benches: sustainable rate, shedding behaviour, epoch latency.

Runs the ``run_overload`` campaign — open-loop Poisson arrivals at 2x
each scenario's measured sustainable rate, with forced epoch stalls so
the deadline-breach path is exercised — and emits the ``overload``
section of ``BENCH_perf.json``: per-case sustainable rates, breach and
shed tallies, staleness, and epoch-latency p50/p99 under pressure.

``BENCH_OVERLOAD_QUICK=1`` (CI's overload-smoke job) shrinks the
campaign to one case of six epochs; the full run is two cases of
twelve.
"""

import os

_OVERLOAD_QUICK_ENV = "BENCH_OVERLOAD_QUICK"


def test_emit_perf_overload(perf_section):
    """Emit the ``overload`` section of BENCH_perf.json.

    Every case must complete with zero safety violations (the Eq. (6)
    and basic-floor checks run on the final committed allocation), every
    forced breach must carry a staleness record, and the campaign's
    latency percentiles land in the artifact for regression gating.
    """
    from repro.resilience import run_overload

    quick = bool(os.environ.get(_OVERLOAD_QUICK_ENV))
    cases = 1 if quick else 2
    epochs = 6 if quick else 12
    report = run_overload(
        cases=cases,
        seed=0,
        epochs=epochs,
        multiplier=2.0,
        stall_epochs=2,
    )
    assert report.ok, [v.to_dict() for v in report.violations]
    totals = report.totals
    assert totals["breaches"] == 2 * cases  # two forced stalls per case
    for name, outcomes in report.checks.items():
        assert outcomes.get("fail", 0) == 0, name

    rates = totals["rates"]
    offered = sum(int(r["offered"] * epochs) for r in rates)
    payload = {
        "kernel": "overload protection (deadline-bounded epochs + "
                  "graduated shedding ladder)",
        "cases": cases,
        "epochs": epochs,
        "multiplier": 2.0,
        "mean_sustainable_rate": (
            sum(r["sustainable"] for r in rates) / len(rates)
        ),
        "offered_flows": offered,
        "admissions": dict(totals["admissions"]),
        "breaches": totals["breaches"],
        "sheds": totals["sheds"],
        "shed_rate": totals["sheds"] / max(1, offered),
        "statuses": dict(report.statuses),
        "epoch_p50_ms": max(r["latency_p50_ms"] for r in rates),
        "epoch_p99_ms": max(r["latency_p99_ms"] for r in rates),
    }
    perf_section("overload", payload)
