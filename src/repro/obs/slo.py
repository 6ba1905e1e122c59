"""SLO summaries: epoch-latency percentiles, time attribution, trend deltas.

This module turns raw registry state into the three service-level views
the ROADMAP's scale tier asks for:

* :func:`latency_summary` / :func:`slo_report` — p50/p95/p99 (plus
  min/max/mean) of the ``runtime.epoch.latency_ms`` histogram, computed
  with the registry's weighted-percentile rule and embedded in the
  schema-versioned run artifact under the ``slo`` key;
* :func:`phase_attribution` / :func:`component_attribution` — where
  epoch time goes, per pipeline phase (``runtime.phase.*`` timers,
  share of the summed phase wall time) and per component (every timer's
  self time grouped by its dotted prefix: ``lp``, ``2pad``, ``perf``,
  ...);
* :func:`bench_trend_rows` / :func:`perf_reference_rows` — deltas of
  current timer means against the checked-in baselines
  ``benchmarks/BENCH_obs.json`` and ``benchmarks/BENCH_perf.json``,
  rendered by ``repro-experiments report``.

Everything here consumes plain dicts (registry snapshots or loaded
artifacts), so the report command works on an artifact file from a
finished run without reconstructing any live objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import MetricsRegistry, weighted_percentile

__all__ = [
    "SLO_SCHEMA",
    "SLO_SCHEMA_VERSION",
    "EPOCH_LATENCY_HISTOGRAM",
    "latency_summary",
    "phase_attribution",
    "component_attribution",
    "slo_report",
    "render_slo",
    "bench_trend_rows",
    "perf_reference_rows",
    "validate_slo",
]

SLO_SCHEMA = "repro.obs/slo"
SLO_SCHEMA_VERSION = 1

# The histogram the runtime feeds once per committed epoch (milliseconds).
EPOCH_LATENCY_HISTOGRAM = "runtime.epoch.latency_ms"

# Phase timers follow ``runtime.phase.<name>``; this prefix is the contract
# between runtime instrumentation and attribution.
PHASE_TIMER_PREFIX = "runtime.phase."

_LATENCY_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))


def latency_summary(values: List[float]) -> Dict[str, float]:
    """p50/p95/p99 + min/max/mean of raw latency samples.

    Uses the same Hyndman–Fan type-7 rule as
    :meth:`~repro.obs.registry.Histogram.percentile`, so artifact
    summaries and live histogram queries agree exactly.
    """
    if not values:
        return {"count": 0}
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    out: Dict[str, float] = {
        "count": n,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / n,
    }
    for key, p in _LATENCY_PERCENTILES:
        out[key] = weighted_percentile(ordered, p)
    return out


def phase_attribution(
    timers: Dict[str, Dict[str, float]]
) -> List[Dict[str, object]]:
    """Per-phase wall time as a share of the summed phase wall time.

    ``timers`` is the ``timers`` section of a registry snapshot
    (``{name: {calls, wall_s, cpu_s, mean_ms}}``).  Only
    ``runtime.phase.*`` entries participate; rows sort by wall time
    descending so the dominant phase leads.
    """
    phases = {
        name[len(PHASE_TIMER_PREFIX):]: summary
        for name, summary in timers.items()
        if name.startswith(PHASE_TIMER_PREFIX)
    }
    total = sum(float(s.get("wall_s", 0.0)) for s in phases.values())
    rows = [
        {
            "phase": phase,
            "calls": int(s.get("calls", 0)),
            "wall_s": float(s.get("wall_s", 0.0)),
            "cpu_s": float(s.get("cpu_s", 0.0)),
            "mean_ms": float(s.get("mean_ms", 0.0)),
            "share": (float(s.get("wall_s", 0.0)) / total) if total else 0.0,
        }
        for phase, s in phases.items()
    ]
    rows.sort(key=lambda r: (-r["wall_s"], r["phase"]))
    return rows


def component_attribution(
    timers: Dict[str, Dict[str, float]]
) -> List[Dict[str, object]]:
    """Self time grouped by dotted component prefix (``lp``, ``2pad``, ...).

    Each timer contributes its self time (wall time minus that of the
    regions timed inside it), so nested same-prefix spans are not counted
    twice and the shares partition the attributed wall time; a summary
    without ``self_s`` counts its wall time.  Phase timers are excluded
    — the phase view slices the same epoch wall time by phase.
    """
    groups: Dict[str, Dict[str, float]] = {}
    for name, summary in timers.items():
        if name.startswith(PHASE_TIMER_PREFIX):
            continue
        component = name.split(".", 1)[0]
        g = groups.setdefault(component, {"wall_s": 0.0, "calls": 0.0})
        g["wall_s"] += float(summary.get("self_s",
                                         summary.get("wall_s", 0.0)))
        g["calls"] += float(summary.get("calls", 0))
    total = sum(g["wall_s"] for g in groups.values())
    rows = [
        {
            "component": component,
            "calls": int(g["calls"]),
            "wall_s": g["wall_s"],
            "share": (g["wall_s"] / total) if total else 0.0,
        }
        for component, g in groups.items()
    ]
    rows.sort(key=lambda r: (-r["wall_s"], r["component"]))
    return rows


def slo_report(
    registry: MetricsRegistry,
    trace_stats: Optional[Dict[str, int]] = None,
    event_stats: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """The ``slo`` section embedded in run artifacts (schema v2)."""
    hist = registry.histograms.get(EPOCH_LATENCY_HISTOGRAM)
    timers = {n: t.summary() for n, t in registry.timers.items()}
    report: Dict[str, object] = {
        "schema": SLO_SCHEMA,
        "schema_version": SLO_SCHEMA_VERSION,
        "epoch_latency_ms": latency_summary(hist.values if hist else []),
        "phase_attribution": phase_attribution(timers),
        "component_attribution": component_attribution(timers),
    }
    if trace_stats is not None:
        report["trace"] = dict(trace_stats)
    if event_stats is not None:
        report["events"] = dict(event_stats)
    return report


def validate_slo(slo: object) -> None:
    """Structural check used by schema validation and the CI smoke job."""
    if not isinstance(slo, dict):
        raise ValueError("slo section must be an object")
    if slo.get("schema") != SLO_SCHEMA:
        raise ValueError(
            f"slo schema {slo.get('schema')!r} != {SLO_SCHEMA!r}"
        )
    if slo.get("schema_version") != SLO_SCHEMA_VERSION:
        raise ValueError(
            f"slo schema_version {slo.get('schema_version')!r} != "
            f"{SLO_SCHEMA_VERSION}"
        )
    latency = slo.get("epoch_latency_ms")
    if not isinstance(latency, dict) or "count" not in latency:
        raise ValueError("slo.epoch_latency_ms must be a summary object")
    if latency["count"]:
        for key in ("min", "max", "mean", "p50", "p95", "p99"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"slo.epoch_latency_ms missing {key!r}")
    for section in ("phase_attribution", "component_attribution"):
        rows = slo.get(section)
        if not isinstance(rows, list):
            raise ValueError(f"slo.{section} must be a list")
        for row in rows:
            if not isinstance(row, dict) or "share" not in row:
                raise ValueError(f"slo.{section} rows need a 'share' field")


# ----------------------------------------------------------------------
# Rendering + benchmark trend deltas (the report command's tables)
# ----------------------------------------------------------------------

def _pct(value: float) -> str:
    return f"{value * 100.0:5.1f}%"


def render_slo(slo: Dict[str, object]) -> str:
    """Human-readable latency + attribution tables for the CLI."""
    lines: List[str] = []
    latency = slo.get("epoch_latency_ms", {"count": 0})
    lines.append("epoch latency (ms)")
    if latency.get("count"):
        lines.append(
            "  count {count:>6}  p50 {p50:8.3f}  p95 {p95:8.3f}  "
            "p99 {p99:8.3f}  mean {mean:8.3f}  max {max:8.3f}".format(
                **latency
            )
        )
    else:
        lines.append("  (no committed epochs recorded)")

    rows = slo.get("phase_attribution", [])
    if rows:
        lines.append("")
        lines.append("phase attribution")
        lines.append(
            f"  {'phase':<10} {'share':>6} {'wall_s':>10} "
            f"{'mean_ms':>9} {'calls':>7}"
        )
        for r in rows:
            lines.append(
                f"  {r['phase']:<10} {_pct(r['share'])} "
                f"{r['wall_s']:>10.4f} {r['mean_ms']:>9.3f} "
                f"{r['calls']:>7}"
            )

    rows = slo.get("component_attribution", [])
    if rows:
        lines.append("")
        lines.append("component attribution")
        lines.append(
            f"  {'component':<12} {'share':>6} {'wall_s':>10} {'calls':>7}"
        )
        for r in rows:
            lines.append(
                f"  {r['component']:<12} {_pct(r['share'])} "
                f"{r['wall_s']:>10.4f} {r['calls']:>7}"
            )

    for key in ("trace", "events"):
        stats = slo.get(key)
        if stats:
            pairs = "  ".join(f"{k}={v}" for k, v in sorted(stats.items()))
            lines.append("")
            lines.append(f"{key}: {pairs}")
    return "\n".join(lines)


def bench_trend_rows(
    timers: Dict[str, Dict[str, float]], bench_obs: Dict[str, object]
) -> List[Dict[str, object]]:
    """Delta of current timer means vs the BENCH_obs baseline.

    The baseline stores timer summaries per sweep point; the largest
    point (most nodes) is the comparison target — the one the scale
    tier cares about.  Only timers present on both sides produce rows;
    ``delta`` is ``(current - baseline) / baseline`` of ``mean_ms``.
    """
    points = bench_obs.get("points") or []
    if not points:
        return []
    baseline = max(points, key=lambda p: p.get("nodes", 0))
    base_timers = baseline.get("timers", {})
    rows = []
    for name in sorted(set(timers) & set(base_timers)):
        current = float(timers[name].get("mean_ms", 0.0))
        base = float(base_timers[name].get("mean_ms", 0.0))
        rows.append(
            {
                "timer": name,
                "current_mean_ms": current,
                "baseline_mean_ms": base,
                "delta": ((current - base) / base) if base else 0.0,
            }
        )
    return rows


def perf_reference_rows(
    bench_perf: Dict[str, object]
) -> List[Dict[str, object]]:
    """Reference lines from BENCH_perf's dynamic-churn section.

    Reported as per-event fast-path milliseconds so an epoch-latency
    mean from a live run can be eyeballed against the checked-in
    fast-path baseline at each benchmarked size.
    """
    dynamic = (bench_perf.get("sections") or {}).get("dynamic") or {}
    rows = []
    for point in dynamic.get("points") or []:
        events = float(point.get("events", 0)) or 1.0
        rows.append(
            {
                "nodes": point.get("nodes"),
                "flows": point.get("flows"),
                "seed": point.get("seed"),
                "fast_ms_per_event": float(point.get("fast_ms", 0.0)) / events,
                "speedup": float(point.get("speedup", 0.0)),
            }
        )
    rows.sort(key=lambda r: (r["nodes"] or 0, r["flows"] or 0, r["seed"] or 0))
    return rows
