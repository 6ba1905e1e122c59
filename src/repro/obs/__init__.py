"""``repro.obs``: the unified observability layer for the 2PA stack.

Six pieces, designed to compose:

* :mod:`~repro.obs.registry` — counters, gauges, histograms, and reentrant
  phase timers behind module-level helpers that cost one ``is None`` check
  when no registry is active;
* :mod:`~repro.obs.trace` — :func:`span`, the one way to time a region:
  hierarchical spans with deterministic ids covering the epoch pipeline,
  LP solves, 2PA-D gossip, and checkpoints, each feeding the phase timer
  of its name (a shared ``NullSpan`` when nothing is active);
* :mod:`~repro.obs.events` — a bounded streaming JSONL event bus with
  explicit drop counters, torn-line-safe under parallel sweep workers;
* :mod:`~repro.obs.export` + :mod:`~repro.obs.slo` — Prometheus
  text-format exposition, epoch-latency p50/p95/p99 summaries, and
  per-phase/per-component time attribution for ``repro-experiments
  report``;
* :mod:`~repro.obs.artifact` + :mod:`~repro.obs.jsonl` — structured,
  schema-versioned run records written atomically (JSON or JSONL), so
  experiments can be diffed across PRs;
* :mod:`~repro.obs.schema` / :mod:`~repro.obs.profile` — validation and
  human-readable profile rendering for the CLI's ``--profile`` flag.

Instrumentation points live in the hot paths of the reproduction:
clique enumeration (``contention.*``), simplex pivots and LP solves
(``lp.*``), 2PA-D constraint propagation (``2pad.*``), the epoch
pipeline (``runtime.*``), and the discrete-event loop (``sim.*``).  See
README's Observability section for the full metric and flag reference.
"""

from .artifact import RunArtifact
from .events import (
    EventBus,
    emit_event,
    get_event_bus,
    set_event_bus,
    using_event_bus,
)
from .export import (
    render_prometheus,
    validate_prometheus_text,
    write_prometheus,
)
from .jsonl import (
    atomic_write_text,
    dump_jsonl,
    load_jsonl,
    records_to_trace,
    trace_to_records,
)
from .profile import render_profile
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    get_registry,
    incr,
    observe,
    set_gauge,
    set_registry,
    using_registry,
    weighted_percentile,
)
from .schema import SCHEMA_NAME, SCHEMA_VERSION, SchemaError, validate_artifact
from .slo import render_slo, slo_report
from .trace import (
    NullSpan,
    Span,
    SpanTracer,
    get_tracer,
    set_tracer,
    span,
    using_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
    "weighted_percentile",
    "get_registry",
    "set_registry",
    "using_registry",
    "incr",
    "observe",
    "set_gauge",
    "Span",
    "NullSpan",
    "SpanTracer",
    "get_tracer",
    "set_tracer",
    "using_tracer",
    "span",
    "EventBus",
    "get_event_bus",
    "set_event_bus",
    "using_event_bus",
    "emit_event",
    "render_prometheus",
    "write_prometheus",
    "validate_prometheus_text",
    "slo_report",
    "render_slo",
    "RunArtifact",
    "render_profile",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "validate_artifact",
    "atomic_write_text",
    "dump_jsonl",
    "load_jsonl",
    "trace_to_records",
    "records_to_trace",
]
