"""Crash-consistent runtime checkpoints: atomic, versioned, checksummed.

A checkpoint is a single JSON document wrapping the complete committed
state of an :class:`~repro.resilience.runtime.AllocatorRuntime` — the
epoch journal, active flow set, topology outage sets, admission queue,
committed shares, and the performance caches (the lossless 2PA-D share
memo, the sharded solver's per-component memo) that make restart cheap.
Three properties make it crash-consistent:

* **atomic replace** — the document is written to a temp file in the
  target directory, fsync'd, and ``os.replace``'d over the destination,
  so a crash mid-save leaves either the old checkpoint or the new one,
  never a torn file;
* **checksummed payload** — the envelope stores the SHA-256 of the
  canonically serialized payload; a truncated, bit-flipped, or
  hand-edited file fails verification on load with
  :class:`CheckpointCorruptError` *before* any state is deserialized —
  the loader never half-applies a bad snapshot;
* **schema versioning** — the envelope carries a schema number; a
  snapshot from an incompatible writer raises
  :class:`CheckpointSchemaError` instead of being misinterpreted.

All failures are typed (:class:`CheckpointError` subclasses), so callers
can distinguish "no checkpoint yet" from "checkpoint damaged" and react
accordingly (start fresh vs. refuse to run).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Union

from ..obs.events import emit_event
from ..obs.registry import incr
from ..obs.trace import span

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointSchemaError",
    "SCHEMA_VERSION",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_KIND = "repro.runtime/checkpoint"
SCHEMA_VERSION = 1


class CheckpointError(Exception):
    """Base class for every checkpoint load/save failure."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a structurally valid, checksum-clean checkpoint."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint was written by an incompatible schema version."""


def _canonical(payload: Dict) -> str:
    """The byte-stable serialization the checksum is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(payload: Dict, path: Union[str, Path]) -> str:
    """Atomically persist ``payload``; returns the stored digest.

    The payload must be JSON-serializable (the runtime builds it from
    plain dicts/lists/strings/numbers only).  Write order: temp file in
    the destination directory → flush + fsync → ``os.replace`` — the
    POSIX recipe for an all-or-nothing file swap.
    """
    path = Path(path)
    with span("checkpoint.save") as save_span:
        canonical = _canonical(payload)
        digest = _digest(canonical)
        envelope = {
            "kind": CHECKPOINT_KIND,
            "schema": SCHEMA_VERSION,
            "sha256": digest,
            "payload": payload,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, sort_keys=True, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, str(path))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        save_span.tag(bytes=len(canonical))
    incr("checkpoint.save")
    emit_event("checkpoint.save", bytes=len(canonical),
               sha256=digest[:12])
    return digest


def load_checkpoint(path: Union[str, Path]) -> Dict:
    """Load and verify a checkpoint; returns the payload dict.

    Raises :class:`CheckpointCorruptError` on unreadable/truncated/
    tampered files and :class:`CheckpointSchemaError` on a version
    mismatch.  A missing file raises ``FileNotFoundError`` (it is a
    normal first-boot condition, not corruption).
    """
    path = Path(path)
    with span("checkpoint.restore") as restore_span:
        text = path.read_text()
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"{path}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(envelope, dict):
            raise CheckpointCorruptError(
                f"{path}: envelope is not an object"
            )
        if envelope.get("kind") != CHECKPOINT_KIND:
            raise CheckpointCorruptError(
                f"{path}: kind {envelope.get('kind')!r} != "
                f"{CHECKPOINT_KIND!r}"
            )
        schema = envelope.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"{path}: schema {schema!r}, this build reads "
                f"{SCHEMA_VERSION}"
            )
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointCorruptError(
                f"{path}: payload is not an object"
            )
        expected = envelope.get("sha256")
        canonical = _canonical(payload)
        actual = _digest(canonical)
        if actual != expected:
            raise CheckpointCorruptError(
                f"{path}: payload checksum mismatch "
                f"(stored {str(expected)[:12]}…, computed {actual[:12]}…)"
            )
        restore_span.tag(bytes=len(canonical))
    incr("checkpoint.restore")
    emit_event("checkpoint.restore", bytes=len(canonical),
               sha256=actual[:12])
    return payload
