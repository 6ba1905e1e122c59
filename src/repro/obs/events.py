"""Bounded streaming JSONL event bus: tail telemetry live, lose nothing silently.

The metrics registry aggregates; the event bus *streams*.  An event is
one JSON object — ``{"record": "event", "seq": N, "source": ..., "kind":
..., ...fields}`` — emitted at a discrete moment (epoch committed, flow
admitted, checkpoint written, a flow's constraint exchange not
converged) and appended to a JSONL file the instant it happens, so a
long churn campaign can be watched with ``tail -f`` instead of waiting
for the end-of-run artifact.

Guarantees:

* **No torn lines.**  Each event is encoded once and appended with a
  single ``os.write`` on an ``O_APPEND`` descriptor.  POSIX appends are
  atomic per write call, so even :class:`~repro.perf.parallel.ParallelSweep`
  worker processes sharing one file never interleave mid-line.
* **Bounded memory, explicit drops.**  The in-memory buffer (what gets
  embedded in artifacts and merged across workers) holds at most
  ``max_pending`` events; overflow increments ``dropped`` and the
  ``obs.events.dropped`` counter instead of growing without bound or
  vanishing silently.  File streaming continues past the bound — the
  bound is backpressure on *memory*, not on the stream.
* **Deterministic merge.**  Every event carries a per-bus sequence
  number and a ``source`` label.  Worker buffers are drained in task
  submission order and absorbed verbatim, so the merged event list is
  identical run-to-run for a seeded workload.

Emit from instrumented code via the module helper, which costs one
``is None`` check when no bus is active::

    from repro.obs.events import emit_event

    emit_event("epoch.commit", epoch=12, status="converged")
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from .registry import incr

__all__ = [
    "EventBus",
    "get_event_bus",
    "set_event_bus",
    "using_event_bus",
    "emit_event",
]


class EventBus:
    """Collects and (optionally) streams discrete telemetry events.

    ``path=None`` keeps events purely in memory (tests, workers that
    ship buffers home instead of sharing a file).  The clock is
    injectable; timestamps are relative to bus creation so two seeded
    runs differ only in the ``t_s`` field, never in order or content.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_pending: int = 10_000,
        source: str = "main",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_pending = int(max_pending)
        self.source = source
        self._clock = clock
        self._origin = clock()
        self._seq = 0
        self.pending: List[Dict[str, object]] = []
        self.dropped = 0
        self.written = 0
        self._fd: Optional[int] = None

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the event dict that was recorded."""
        self._seq += 1
        event: Dict[str, object] = {
            "record": "event",
            "seq": self._seq,
            "source": self.source,
            "kind": kind,
            "t_s": self._clock() - self._origin,
        }
        for key, value in fields.items():
            if key not in event:
                event[key] = value
        if len(self.pending) < self.max_pending:
            self.pending.append(event)
        else:
            self.dropped += 1
            incr("obs.events.dropped")
        if self.path is not None:
            self._append_line(event)
        return event

    def _append_line(self, event: Dict[str, object]) -> None:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        line = json.dumps(event, sort_keys=True) + "\n"
        # One write call per line: O_APPEND makes it atomic, so worker
        # processes appending to the same file cannot tear each other's
        # lines.
        os.write(self._fd, line.encode("utf-8"))
        self.written += 1

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Remove and return the pending buffer (for shipping to a parent)."""
        events, self.pending = self.pending, []
        return events

    def absorb(self, events: Iterable[Dict[str, object]]) -> int:
        """Fold events from another bus (a sweep worker) into this one.

        Events keep their original ``seq``/``source`` — merge order is
        the caller's (task-submission) order, which is what makes the
        merged stream deterministic.  Returns how many were kept; the
        rest count as drops.
        """
        kept = 0
        for event in events:
            if len(self.pending) < self.max_pending:
                self.pending.append(event)
                kept += 1
            else:
                self.dropped += 1
                incr("obs.events.dropped")
            if self.path is not None:
                self._append_line(event)
        return kept

    def stats(self) -> Dict[str, int]:
        return {
            "emitted": self._seq,
            "pending": len(self.pending),
            "dropped": self.dropped,
            "written": self.written,
        }

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Module-level active bus + zero-overhead-when-off helper
# ----------------------------------------------------------------------

_active: Optional[EventBus] = None


def get_event_bus() -> Optional[EventBus]:
    """The currently active bus, or ``None`` when event streaming is off."""
    return _active


def set_event_bus(bus: Optional[EventBus]) -> Optional[EventBus]:
    """Install ``bus`` as the active one (``None`` disables events)."""
    global _active
    _active = bus
    return bus


class using_event_bus:
    """Context manager: activate a bus, restore the previous on exit.

    >>> with using_event_bus() as bus:
    ...     emit_event("demo", n=1)
    {...}
    >>> bus.pending[0]["kind"]
    'demo'
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self._previous: Optional[EventBus] = None

    def __enter__(self) -> EventBus:
        self._previous = get_event_bus()
        set_event_bus(self.bus)
        return self.bus

    def __exit__(self, *exc: object) -> bool:
        set_event_bus(self._previous)
        self.bus.close()
        return False


def emit_event(kind: str, **fields: object) -> None:
    """Emit an event on the active bus; no-op when none is active."""
    bus = _active
    if bus is not None:
        bus.emit(kind, **fields)
