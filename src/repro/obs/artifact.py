"""Structured run artifacts: one machine-readable record per experiment.

A :class:`RunArtifact` bundles everything needed to compare two runs of the
same experiment across PRs: what ran (kind, scenario, seed, config), which
code ran it (package version), how long it took (wall time), the paper
quantities it produced (``results``), every metric the registry collected,
and optionally the raw trace records.  Writes are atomic, so benchmark
tooling never reads a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from .jsonl import atomic_write_text, dump_jsonl, load_jsonl, trace_to_records
from .registry import MetricsRegistry
from .schema import SCHEMA_NAME, SCHEMA_VERSION, validate_artifact

__all__ = ["RunArtifact", "ShareDigest"]


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports modules that import repro.obs,
    # so a top-level import here would be circular.
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - partial-init edge
        return "unknown"


class ShareDigest:
    """A running SHA-256 over committed allocations, in the order they
    are added, each as key-sorted compact JSON (floats by ``repr``, so a
    share that moves by one bit changes it).  Campaign and verify
    reports carry it in their results as ``shares_sha256``."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, allocations: Iterable[Mapping[str, float]]) -> None:
        for shares in allocations:
            self._sha.update(json.dumps(
                shares, sort_keys=True, separators=(",", ":")).encode())
            self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class RunArtifact:
    """A complete, schema-versioned record of one experiment run."""

    kind: str
    scenario: str = ""
    seed: Optional[int] = None
    config: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    trace: List[Dict[str, object]] = field(default_factory=list)
    slo: Optional[Dict[str, object]] = None
    wall_time_s: float = 0.0
    version: str = field(default_factory=_package_version)
    created_unix: float = field(default_factory=time.time)

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------
    def attach_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Snapshot ``registry`` into the artifact's metrics section."""
        if registry is None:
            self.metrics = MetricsRegistry().snapshot()
        else:
            self.metrics = registry.snapshot()

    def attach_trace(self, tracer) -> None:
        """Export a :class:`~repro.sim.trace.Tracer`'s records."""
        self.trace = trace_to_records(tracer)

    def attach_slo(
        self,
        registry: Optional[MetricsRegistry],
        trace_stats: Optional[Dict[str, int]] = None,
        event_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        """Embed the SLO section (epoch latency + attribution) from
        ``registry``; see :func:`repro.obs.slo.slo_report`."""
        from .slo import slo_report

        self.slo = slo_report(
            registry if registry is not None else MetricsRegistry(),
            trace_stats=trace_stats,
            event_stats=event_stats,
        )

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        if not self.metrics:
            self.attach_registry(None)
        doc: Dict[str, object] = {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "scenario": self.scenario,
            "seed": self.seed,
            "config": dict(self.config),
            "version": self.version,
            "created_unix": self.created_unix,
            "wall_time_s": self.wall_time_s,
            "results": self.results,
            "metrics": self.metrics,
            "trace": list(self.trace),
        }
        if self.slo is not None:
            doc["slo"] = self.slo
        return validate_artifact(doc)

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "RunArtifact":
        validate_artifact(doc)
        return cls(
            kind=doc["kind"],
            scenario=doc["scenario"],
            seed=doc["seed"],
            config=dict(doc["config"]),
            results=dict(doc["results"]),
            metrics=dict(doc["metrics"]),
            trace=list(doc["trace"]),
            slo=doc.get("slo"),
            wall_time_s=float(doc["wall_time_s"]),
            version=str(doc["version"]),
            created_unix=float(doc.get("created_unix", 0.0)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True,
                          default=str)

    # ------------------------------------------------------------------
    # Disk I/O (atomic)
    # ------------------------------------------------------------------
    def write(self, path: str) -> str:
        """Atomically write the artifact to ``path``.

        A ``.jsonl`` suffix selects the streaming layout (header line, then
        one line per metric sample and trace record); anything else gets a
        single pretty-printed JSON document.
        """
        if str(path).endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            atomic_write_text(str(path), self.to_json() + "\n")
        return str(path)

    def write_jsonl(self, path: str) -> int:
        """JSONL layout: artifact header, metric samples, trace records."""
        doc = self.to_json_dict()
        header = {k: v for k, v in doc.items()
                  if k not in ("metrics", "trace")}
        header["record"] = "artifact-header"
        records: List[Dict[str, object]] = [header]
        metrics = doc["metrics"]
        for section in ("counters", "gauges"):
            for name, value in metrics.get(section, {}).items():
                records.append({"record": section[:-1], "name": name,
                                "value": value})
        for name, summary in metrics.get("histograms", {}).items():
            records.append({"record": "histogram", "name": name, **summary})
        for name, summary in metrics.get("timers", {}).items():
            records.append({"record": "timer", "name": name, **summary})
        records.extend(doc["trace"])
        return dump_jsonl(str(path), records)

    @classmethod
    def load(cls, path: str) -> "RunArtifact":
        """Read back an artifact written by :meth:`write` (either layout)."""
        if str(path).endswith(".jsonl"):
            records = load_jsonl(str(path))
            header = next(
                r for r in records if r.get("record") == "artifact-header"
            )
            metrics: Dict[str, Dict[str, object]] = {
                "counters": {}, "gauges": {}, "histograms": {}, "timers": {}
            }
            trace: List[Dict[str, object]] = []
            for rec in records:
                kind = rec.get("record")
                if kind in ("counter", "gauge"):
                    metrics[kind + "s"][rec["name"]] = rec["value"]
                elif kind in ("histogram", "timer"):
                    body = {k: v for k, v in rec.items()
                            if k not in ("record", "name")}
                    metrics[kind + "s"][rec["name"]] = body
                elif kind == "trace":
                    trace.append({k: v for k, v in rec.items()
                                  if k != "record"})
            doc = {k: v for k, v in header.items() if k != "record"}
            doc["metrics"] = metrics
            doc["trace"] = trace
            return cls.from_json_dict(doc)
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))
