"""Run-artifact schema and validation.

The artifact format is intentionally simple enough to validate with a
hand-rolled checker (no external jsonschema dependency).  ``SCHEMA_NAME``
and ``SCHEMA_VERSION`` are embedded in every artifact so downstream
tooling can detect format drift across PRs.

Version history:

* **v1** — kind/scenario/seed/config/version/wall_time_s/results/metrics/
  trace.
* **v2** — adds an optional top-level ``slo`` section (epoch-latency
  p50/p95/p99 plus per-phase and per-component time attribution; see
  :mod:`repro.obs.slo`).  v1 documents remain valid — the reader accepts
  every version in ``ACCEPTED_VERSIONS``.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "ACCEPTED_VERSIONS",
    "SchemaError",
    "validate_artifact",
]

SCHEMA_NAME = "repro.obs/run-artifact"
SCHEMA_VERSION = 2

#: Versions this build can read.  Writers always emit ``SCHEMA_VERSION``.
ACCEPTED_VERSIONS = (1, 2)

#: Required top-level fields and their accepted types.
_TOP_LEVEL: Dict[str, Tuple[type, ...]] = {
    "schema": (str,),
    "schema_version": (int,),
    "kind": (str,),
    "scenario": (str,),
    "seed": (int, type(None)),
    "config": (dict,),
    "version": (str,),
    "wall_time_s": (int, float),
    "results": (dict,),
    "metrics": (dict,),
    "trace": (list,),
}

_METRIC_SECTIONS = ("counters", "gauges", "histograms", "timers")

_TIMER_FIELDS = ("calls", "wall_s", "cpu_s")

_TRACE_FIELDS: Dict[str, Tuple[type, ...]] = {
    "time": (int, float),
    "category": (str,),
    "message": (str,),
    "fields": (dict,),
}


class SchemaError(ValueError):
    """An artifact document violates the run-artifact schema."""


def _fail(path: str, problem: str) -> None:
    raise SchemaError(f"artifact invalid at {path}: {problem}")


def validate_artifact(doc: object) -> Dict[str, object]:
    """Validate ``doc`` as a run artifact; returns it unchanged on success.

    Raises :class:`SchemaError` naming the offending path otherwise.
    """
    if not isinstance(doc, dict):
        _fail("$", f"expected object, got {type(doc).__name__}")
    for key, types in _TOP_LEVEL.items():
        if key not in doc:
            _fail("$", f"missing required field {key!r}")
        if not isinstance(doc[key], types):
            _fail(f"$.{key}",
                  f"expected {'/'.join(t.__name__ for t in types)}, "
                  f"got {type(doc[key]).__name__}")
    if doc["schema"] != SCHEMA_NAME:
        _fail("$.schema", f"expected {SCHEMA_NAME!r}, got {doc['schema']!r}")
    if doc["schema_version"] not in ACCEPTED_VERSIONS:
        _fail("$.schema_version",
              f"unsupported version {doc['schema_version']!r}")

    slo = doc.get("slo")
    if slo is not None:
        # Imported here, not at module top: obs.slo imports obs.registry,
        # and keeping schema dependency-free of the metrics layer avoids
        # an import cycle through obs/__init__.
        from .slo import validate_slo

        try:
            validate_slo(slo)
        except ValueError as exc:
            _fail("$.slo", str(exc))

    metrics = doc["metrics"]
    for section in _METRIC_SECTIONS:
        if section not in metrics:
            _fail("$.metrics", f"missing section {section!r}")
        if not isinstance(metrics[section], dict):
            _fail(f"$.metrics.{section}", "expected object")
    for name, value in metrics["counters"].items():
        if not isinstance(value, (int, float)):
            _fail(f"$.metrics.counters.{name}", "expected number")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, (int, float)):
            _fail(f"$.metrics.gauges.{name}", "expected number")
    for name, summary in metrics["histograms"].items():
        if not isinstance(summary, dict) or "count" not in summary:
            _fail(f"$.metrics.histograms.{name}",
                  "expected summary object with 'count'")
    for name, summary in metrics["timers"].items():
        if not isinstance(summary, dict):
            _fail(f"$.metrics.timers.{name}", "expected summary object")
        for field in _TIMER_FIELDS:
            if field not in summary:
                _fail(f"$.metrics.timers.{name}", f"missing {field!r}")
            if not isinstance(summary[field], (int, float)):
                _fail(f"$.metrics.timers.{name}.{field}", "expected number")

    for i, rec in enumerate(doc["trace"]):
        if not isinstance(rec, dict):
            _fail(f"$.trace[{i}]", "expected object")
        for field, types in _TRACE_FIELDS.items():
            if field not in rec:
                _fail(f"$.trace[{i}]", f"missing {field!r}")
            if not isinstance(rec[field], types):
                _fail(f"$.trace[{i}].{field}",
                      f"expected {'/'.join(t.__name__ for t in types)}")
    return doc

